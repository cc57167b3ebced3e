//! Differential model test: `ConnTable` against the implementation it
//! replaced.
//!
//! The reference below is the previous `ConnTable`, kept as it was: a
//! touch *adds* a wheel and an LRU entry and leaves the old ones
//! behind, and `expire`/`evict_lru` skip whatever turns out stale
//! (removed since, or re-armed under a newer sequence number). It is
//! correct and its indexes grow by one entry per packet. The real table
//! moves a connection's one entry instead. Random sequences of packets
//! (new / touch / reply / FIN / RST on TCP, UDP and ICMP), `expire`
//! calls at an advancing clock (sub-slot steps, so "due within this
//! slot but not yet" re-arms happen) and capacity evictions drive both
//! in lock-step; every `Observation`, every `Vec<Expired>` **in
//! order**, `stats()`, `len()` and the half-open counts must agree
//! after every step.

use livesec_conntrack::{ConnTable, ConnTimeouts};
use livesec_net::{FlowKey, MacAddr, TcpFlags};
use livesec_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Sequences per proptest case: 64 default cases x 32 = 2048 sequences.
const SEQUENCES_PER_CASE: usize = 32;

/// The previous implementation, verbatim but for its name (the
/// analyzer's call graph resolves methods by type name, and would file
/// this copy under the real table's hot roots) and the accessors this
/// test never calls.
mod reference {
    use livesec_conntrack::{
        ConnDir, ConnEvent, ConnKey, ConnState, ConnTimeouts, Expired, Observation, PacketState,
        TableStats,
    };
    use livesec_net::{FlowKey, TcpFlags};
    use livesec_sim::SimTime;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    const SLOT_NANOS: u64 = 1_000_000;

    /// One tracked connection.
    #[derive(Clone, Debug)]
    pub struct Conn {
        state: ConnState,
        initiator: (Ipv4Addr, u16),
        first_key: FlowKey,
        last_seen: SimTime,
        deadline: SimTime,
        seq: u64,
        orig_head: Vec<u8>,
        reply_head: Vec<u8>,
        orig_pkts: u64,
        reply_pkts: u64,
    }

    /// The deterministic connection-tracking table.
    #[derive(Clone)]
    pub struct LazySkipTable {
        conns: BTreeMap<ConnKey, Conn>,
        /// Timer wheel: `(slot, arming seq) -> key`. Stale entries (the
        /// connection was touched since, or removed) are skipped lazily.
        wheel: BTreeMap<(u64, u64), ConnKey>,
        /// LRU index: `(last_seen, arming seq) -> key`, same lazy-skip
        /// scheme. The first fresh entry is the eviction victim.
        lru: BTreeMap<(SimTime, u64), ConnKey>,
        /// Half-open (SYN_SENT/SYN_RECV) connection count per initiator.
        half_open: BTreeMap<Ipv4Addr, u32>,
        capacity: usize,
        head_bytes: usize,
        strict: bool,
        timeouts: ConnTimeouts,
        seq: u64,
        insertions: u64,
        evictions: u64,
        expirations: u64,
        invalid_packets: u64,
        established_total: u64,
        closed_total: u64,
        state_counts: [u64; ConnState::COUNT],
    }

    impl LazySkipTable {
        /// An empty table with the default capacity (65 536 entries).
        pub fn new() -> Self {
            LazySkipTable {
                conns: BTreeMap::new(),
                wheel: BTreeMap::new(),
                lru: BTreeMap::new(),
                half_open: BTreeMap::new(),
                capacity: 65_536,
                head_bytes: 64,
                strict: false,
                timeouts: ConnTimeouts::default(),
                seq: 0,
                insertions: 0,
                evictions: 0,
                expirations: 0,
                invalid_packets: 0,
                established_total: 0,
                closed_total: 0,
                state_counts: [0; ConnState::COUNT],
            }
        }

        /// Bounds the table at `capacity` entries.
        ///
        /// # Panics
        ///
        /// Panics if `capacity` is zero.
        pub fn with_capacity(mut self, capacity: usize) -> Self {
            assert!(capacity > 0, "conntrack capacity must be positive");
            self.capacity = capacity;
            self
        }

        /// Replaces the per-state idle timeouts.
        pub fn with_timeouts(mut self, timeouts: ConnTimeouts) -> Self {
            self.timeouts = timeouts;
            self
        }

        /// Strict mode: a TCP segment with no prior entry and no SYN is
        /// classified invalid instead of picked up mid-stream.
        pub fn with_strict(mut self) -> Self {
            self.strict = true;
            self
        }

        /// How many leading payload bytes to stash per direction (protocol
        /// identification reads these). Default 64.
        pub fn with_head_bytes(mut self, n: usize) -> Self {
            self.head_bytes = n;
            self
        }

        /// Live entry count.
        pub fn len(&self) -> usize {
            self.conns.len()
        }

        /// Current half-open connection count for an initiator address.
        pub fn half_open(&self, src: Ipv4Addr) -> u32 {
            self.half_open.get(&src).copied().unwrap_or(0)
        }

        /// Counter snapshot.
        pub fn stats(&self) -> TableStats {
            TableStats {
                entries: self.conns.len() as u64,
                insertions: self.insertions,
                evictions: self.evictions,
                expirations: self.expirations,
                invalid_packets: self.invalid_packets,
                established_total: self.established_total,
                closed_total: self.closed_total,
                states: self.state_counts,
            }
        }

        /// Feeds one packet (described by its flow key, TCP flags when
        /// applicable, and payload) through the tracker.
        pub fn observe(
            &mut self,
            key: &FlowKey,
            flags: Option<TcpFlags>,
            payload: &[u8],
            now: SimTime,
        ) -> Observation {
            let ck = ConnKey::of(key);
            let ep = (key.nw_src, if key.nw_proto == 1 { 0 } else { key.tp_src });

            let Some(conn) = self.conns.get_mut(&ck) else {
                return self.observe_new(ck, key, ep, flags, payload, now);
            };
            let dir = if conn.initiator == ep {
                ConnDir::Original
            } else {
                ConnDir::Reply
            };
            let old_state = conn.state;

            if old_state == ConnState::Closed {
                // Traffic on a torn-down connection: invalid, and the
                // entry keeps aging toward removal.
                self.invalid_packets += 1;
                return Observation {
                    key: ck,
                    dir,
                    state: ConnState::Closed,
                    packet_state: PacketState::Invalid,
                    event: None,
                };
            }

            let (new_state, event) = match (key.nw_proto, flags) {
                (6, Some(fl)) => tcp_next(old_state, dir, fl),
                (1, _) => (ConnState::Icmp, None),
                _ => match (old_state, dir) {
                    (ConnState::UdpNew, ConnDir::Reply) => {
                        (ConnState::UdpEstablished, Some(ConnEvent::Established))
                    }
                    (s, _) => (s, None),
                },
            };

            // Stash payload heads and per-direction counters.
            let head_bytes = self.head_bytes;
            let stash = match dir {
                ConnDir::Original => {
                    conn.orig_pkts += 1;
                    &mut conn.orig_head
                }
                ConnDir::Reply => {
                    conn.reply_pkts += 1;
                    &mut conn.reply_head
                }
            };
            if stash.len() < head_bytes && !payload.is_empty() {
                let room = head_bytes - stash.len();
                stash.extend_from_slice(&payload[..payload.len().min(room)]);
            }

            // Touch: new arming sequence, fresh deadline and LRU position.
            self.seq += 1;
            conn.seq = self.seq;
            conn.last_seen = now;
            conn.state = new_state;
            conn.deadline = now + self.timeouts.for_state(new_state);
            let (deadline, seq) = (conn.deadline, conn.seq);
            let initiator_ip = conn.initiator.0;
            self.wheel
                .insert((deadline.as_nanos() / SLOT_NANOS, seq), ck);
            self.lru.insert((now, seq), ck);

            if new_state != old_state {
                self.state_counts[old_state.index()] -= 1;
                self.state_counts[new_state.index()] += 1;
                self.note_half_open(initiator_ip, Some(old_state), Some(new_state));
            }
            match event {
                Some(ConnEvent::Established) => self.established_total += 1,
                Some(ConnEvent::Closed) => self.closed_total += 1,
                None => {}
            }

            let packet_state = if dir == ConnDir::Reply || new_state.is_established() {
                PacketState::Established
            } else {
                PacketState::New
            };
            Observation {
                key: ck,
                dir,
                state: new_state,
                packet_state,
                event,
            }
        }

        fn observe_new(
            &mut self,
            ck: ConnKey,
            key: &FlowKey,
            ep: (Ipv4Addr, u16),
            flags: Option<TcpFlags>,
            payload: &[u8],
            now: SimTime,
        ) -> Observation {
            let state = match (key.nw_proto, flags) {
                (6, Some(fl)) => {
                    let syn_only = fl.contains(TcpFlags::SYN) && !fl.contains(TcpFlags::ACK);
                    if fl.contains(TcpFlags::RST) || (!syn_only && self.strict) {
                        // A lone RST, or (strict mode) a mid-stream
                        // segment: nothing to track.
                        self.invalid_packets += 1;
                        return Observation {
                            key: ck,
                            dir: ConnDir::Original,
                            state: ConnState::Closed,
                            packet_state: PacketState::Invalid,
                            event: None,
                        };
                    }
                    ConnState::SynSent
                }
                (1, _) => ConnState::Icmp,
                _ => ConnState::UdpNew,
            };

            if self.conns.len() >= self.capacity {
                self.evict_lru();
            }
            self.seq += 1;
            let mut head = Vec::new();
            if !payload.is_empty() {
                head.extend_from_slice(&payload[..payload.len().min(self.head_bytes)]);
            }
            let conn = Conn {
                state,
                initiator: ep,
                first_key: *key,
                last_seen: now,
                deadline: now + self.timeouts.for_state(state),
                seq: self.seq,
                orig_head: head,
                reply_head: Vec::new(),
                orig_pkts: 1,
                reply_pkts: 0,
            };
            self.wheel
                .insert((conn.deadline.as_nanos() / SLOT_NANOS, conn.seq), ck);
            self.lru.insert((now, conn.seq), ck);
            self.conns.insert(ck, conn);
            self.insertions += 1;
            self.state_counts[state.index()] += 1;
            self.note_half_open(ep.0, None, Some(state));

            Observation {
                key: ck,
                dir: ConnDir::Original,
                state,
                packet_state: PacketState::New,
                event: None,
            }
        }

        /// Removes every connection whose idle deadline has passed, in
        /// deterministic `(deadline slot, arming seq)` order.
        pub fn expire(&mut self, now: SimTime) -> Vec<Expired> {
            let now_slot = now.as_nanos() / SLOT_NANOS;
            let mut out = Vec::new();
            while let Some((&(slot, seq), &ck)) = self.wheel.iter().next() {
                if slot > now_slot {
                    break;
                }
                self.wheel.remove(&(slot, seq));
                let Some(conn) = self.conns.get(&ck) else {
                    continue; // removed since arming
                };
                if conn.seq != seq {
                    continue; // touched since arming
                }
                if conn.deadline > now {
                    // Slot boundary rounding: due within this slot but not
                    // yet. Re-arm one slot ahead; the deadline re-check
                    // keeps this exact.
                    self.wheel.insert((now_slot + 1, seq), ck);
                    continue;
                }
                let Some(conn) = self.conns.remove(&ck) else {
                    continue;
                };
                self.lru.remove(&(conn.last_seen, conn.seq));
                self.state_counts[conn.state.index()] -= 1;
                self.note_half_open(conn.initiator.0, Some(conn.state), None);
                self.expirations += 1;
                if conn.state.is_established() {
                    self.closed_total += 1;
                }
                out.push(Expired {
                    key: ck,
                    flow: conn.first_key,
                    state: conn.state,
                });
            }
            out
        }

        /// Evicts the least-recently-seen connection (capacity pressure).
        fn evict_lru(&mut self) {
            while let Some((&(t, seq), &ck)) = self.lru.iter().next() {
                self.lru.remove(&(t, seq));
                let Some(conn) = self.conns.get(&ck) else {
                    continue;
                };
                if conn.seq != seq {
                    continue; // stale position
                }
                let Some(conn) = self.conns.remove(&ck) else {
                    continue;
                };
                self.state_counts[conn.state.index()] -= 1;
                self.note_half_open(conn.initiator.0, Some(conn.state), None);
                self.evictions += 1;
                return;
            }
        }

        fn note_half_open(
            &mut self,
            initiator: Ipv4Addr,
            old: Option<ConnState>,
            new: Option<ConnState>,
        ) {
            let was = old.map(|s| s.is_half_open()).unwrap_or(false);
            let is = new.map(|s| s.is_half_open()).unwrap_or(false);
            if was == is {
                return;
            }
            if is {
                *self.half_open.entry(initiator).or_insert(0) += 1;
            } else if let Some(n) = self.half_open.get_mut(&initiator) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.half_open.remove(&initiator);
                }
            }
        }
    }

    /// The TCP transition function: `(state, direction, flags)` to
    /// `(next state, event)`. See DESIGN.md §7 for the diagram.
    fn tcp_next(state: ConnState, dir: ConnDir, fl: TcpFlags) -> (ConnState, Option<ConnEvent>) {
        use ConnDir::*;
        use ConnState::*;

        if fl.contains(TcpFlags::RST) {
            let event = state.is_established().then_some(ConnEvent::Closed);
            return (Closed, event);
        }
        let syn_ack = fl.contains(TcpFlags::SYN) && fl.contains(TcpFlags::ACK);
        let fin = fl.contains(TcpFlags::FIN);
        match (state, dir) {
            (SynSent, Original) => (SynSent, None),
            (SynSent, Reply) if syn_ack => (SynRecv, None),
            // Reply data/ACK on a mid-stream pickup: both directions seen.
            (SynSent, Reply) => (Established, Some(ConnEvent::Established)),
            (SynRecv, Original) => (Established, Some(ConnEvent::Established)),
            (SynRecv, Reply) => (SynRecv, None),
            (Established, _) if fin => match dir {
                Original => (FinWait, None),
                Reply => (CloseWait, None),
            },
            (Established, _) => (Established, None),
            (FinWait, Reply) if fin => (TimeWait, Some(ConnEvent::Closed)),
            (FinWait, _) => (FinWait, None),
            (CloseWait, Original) if fin => (TimeWait, Some(ConnEvent::Closed)),
            (CloseWait, _) => (CloseWait, None),
            (TimeWait, _) => (TimeWait, None),
            // Closed is handled before transition; UDP/ICMP states never
            // reach the TCP table.
            (s, _) => (s, None),
        }
    }
}

/// Initiator addresses of the key universe, for the half-open check.
const SOURCES: u8 = 3;

/// Fifteen connections — three initiators x two source ports over TCP
/// (weighted 3:1:1) and UDP, one ICMP pair per initiator — few enough
/// that capacities of 2-6 evict constantly and every key is revisited.
fn arb_key() -> impl Strategy<Value = FlowKey> {
    (0u8..SOURCES, 0u16..2, 0u8..5).prop_map(|(src, port, proto_sel)| {
        let proto = [6u8, 6, 6, 17, 1][proto_sel as usize];
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: Ipv4Addr::new(10, 0, 0, 1 + src),
            nw_dst: Ipv4Addr::new(10, 0, 1, 1),
            nw_proto: proto,
            tp_src: 40_000 + port,
            tp_dst: 80,
        }
    })
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    prop_oneof![
        Just(TcpFlags::SYN),
        Just(TcpFlags::SYN | TcpFlags::ACK),
        Just(TcpFlags::ACK),
        Just(TcpFlags::PSH | TcpFlags::ACK),
        Just(TcpFlags::PSH | TcpFlags::ACK),
        Just(TcpFlags::FIN | TcpFlags::ACK),
        Just(TcpFlags::RST),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    /// One packet: key, reply direction?, TCP flags, payload length,
    /// and how far behind the clock its timestamp lags (a caller is
    /// not obliged to observe in time order).
    Observe(FlowKey, bool, TcpFlags, usize, u64),
    Expire,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let observe = || {
        (
            arb_key(),
            any::<bool>(),
            arb_flags(),
            0usize..12,
            prop_oneof![Just(0u64), Just(0), Just(0), 0u64..2_000_000],
        )
            .prop_map(|(k, reply, fl, len, lag)| Op::Observe(k, reply, fl, len, lag))
    };
    prop_oneof![observe(), observe(), observe(), Just(Op::Expire)]
}

/// Clock steps: mostly inside one 1 ms wheel slot, sometimes across a
/// few, now and then past every timeout.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..400_000,
        0u64..400_000,
        400_000u64..3_000_000,
        3_000_000u64..40_000_000,
    ]
}

/// Millisecond-scale timeouts, distinct per state, so deadlines move
/// both ways on a transition and expiry happens inside a sequence.
fn timeouts() -> ConnTimeouts {
    let ms = SimDuration::from_millis;
    ConnTimeouts {
        syn_sent: ms(4),
        syn_recv: ms(5),
        established: ms(12),
        fin_wait: ms(6),
        close_wait: ms(7),
        time_wait: ms(3),
        closed: ms(1),
        udp_new: ms(4),
        udp_established: ms(9),
        icmp: ms(2),
    }
}

fn run_sequence(capacity: usize, strict: bool, ops: Vec<(Op, u64)>) -> Result<(), TestCaseError> {
    let mut table = ConnTable::new()
        .with_capacity(capacity)
        .with_timeouts(timeouts())
        .with_head_bytes(8);
    let mut model = reference::LazySkipTable::new()
        .with_capacity(capacity)
        .with_timeouts(timeouts())
        .with_head_bytes(8);
    if strict {
        table = table.with_strict();
        model = model.with_strict();
    }
    let payload = [0x5au8; 12];
    let mut now = 0u64;
    for (op, dt) in ops {
        now += dt;
        match &op {
            Op::Observe(key, reply, flags, len, lag) => {
                let key = if *reply { key.reversed() } else { *key };
                let flags = (key.nw_proto == 6).then_some(*flags);
                let at = SimTime::from_nanos(now.saturating_sub(*lag));
                prop_assert_eq!(
                    table.observe(&key, flags, &payload[..*len], at),
                    model.observe(&key, flags, &payload[..*len], at),
                    "{op:?}"
                );
            }
            Op::Expire => {
                let at = SimTime::from_nanos(now);
                prop_assert_eq!(table.expire(at), model.expire(at), "{op:?} at {now}");
            }
        }
        prop_assert_eq!(table.stats(), model.stats(), "stats after {op:?}");
        prop_assert_eq!(table.len(), model.len(), "len after {op:?}");
        for src in 0..SOURCES {
            let ip = Ipv4Addr::new(10, 0, 0, 1 + src);
            prop_assert_eq!(
                table.half_open(ip),
                model.half_open(ip),
                "half-open after {op:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn conn_table_agrees_with_the_lazy_skip_reference(
        sequences in proptest::collection::vec(
            (
                2usize..7,
                any::<bool>(),
                proptest::collection::vec((arb_op(), arb_dt()), 0..96),
            ),
            SEQUENCES_PER_CASE,
        ),
    ) {
        for (capacity, strict, ops) in sequences {
            run_sequence(capacity, strict, ops)?;
        }
    }
}
