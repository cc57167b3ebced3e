#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

//! Deterministic connection tracking for the LiveSec service elements
//! and controller.
//!
//! The paper's service elements inspect flows packet by packet; real
//! stateful enforcement ("allow replies to established connections",
//! SYN-flood detection, bypassing inspection for long-lived flows)
//! needs per-*connection* state. [`ConnTable`] provides it:
//!
//! * **Canonical bidirectional keys** — [`ConnKey::of`] maps a flow
//!   and its reverse onto the same key by ordering the two
//!   `(ip, port)` endpoints lexicographically, the same normalization
//!   `livesec_net::SessionKey` applies to MAC/IP triples.
//! * **TCP state machine** — `SYN_SENT → SYN_RECV → ESTABLISHED →
//!   FIN_WAIT/CLOSE_WAIT → TIME_WAIT → CLOSED`, plus RST teardown.
//!   Mid-stream pickup (a data segment with no prior entry) is
//!   accepted by default — the simulator's applications exchange data
//!   without full handshakes — and promotes to `ESTABLISHED` once
//!   both directions have been seen; strict mode classifies such
//!   segments as invalid instead.
//! * **UDP/ICMP pseudo-states** — `UDP_NEW → UDP_ESTABLISHED` on the
//!   first reply, and a single `ICMP` state.
//! * **Timer-wheel expiry** — per-state idle timeouts, tracked on a
//!   millisecond-slot wheel keyed by [`livesec_sim::SimTime`] (never
//!   the wall clock). Expiry order is `(slot, arming sequence)` —
//!   fully deterministic.
//! * **Bounded capacity with LRU eviction** — the least recently seen
//!   entry goes first, tracked in an ordered structure keyed by
//!   `(last_seen, sequence)` so eviction order never depends on hash
//!   iteration.
//! * **Bounded indexes** — the wheel and the LRU index hold exactly
//!   one entry per live connection: a touch moves the connection's
//!   entry instead of leaving a stale one behind, so a packet on an
//!   existing connection costs one lookup and two index moves whatever
//!   the table has seen before.
//!
//! Everything is ordinary data with ordered collections: two runs
//! over the same packet sequence produce byte-identical tables,
//! which `livesec-lint` and the golden-trace suite enforce.

use livesec_net::{FlowKey, Packet, TcpFlags};
use livesec_sim::{SimDuration, SimTime};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::net::Ipv4Addr;

/// Width of a timer-wheel slot. One millisecond keeps the wheel
/// coarse enough that touches rarely move an entry within its slot,
/// and fine enough that expiry lag is negligible at simulation
/// timescales.
const SLOT_NANOS: u64 = 1_000_000;

/// The canonical bidirectional connection key: protocol plus the two
/// `(address, port)` endpoints in lexicographic order, so a flow and
/// its reverse map to the same key. ICMP has no ports; both are zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConnKey {
    /// IP protocol number.
    pub proto: u8,
    /// The lexicographically smaller endpoint.
    pub lo: (Ipv4Addr, u16),
    /// The lexicographically larger endpoint.
    pub hi: (Ipv4Addr, u16),
}

impl ConnKey {
    /// Canonicalizes a flow key. `ConnKey::of(k) == ConnKey::of(&k.reversed())`
    /// for every key (the property the proptest pins).
    pub fn of(key: &FlowKey) -> ConnKey {
        let (sp, dp) = if key.nw_proto == 1 {
            (0, 0)
        } else {
            (key.tp_src, key.tp_dst)
        };
        let a = (key.nw_src, sp);
        let b = (key.nw_dst, dp);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ConnKey {
            proto: key.nw_proto,
            lo,
            hi,
        }
    }
}

impl fmt::Display for ConnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proto {} {}:{} <-> {}:{}",
            self.proto, self.lo.0, self.lo.1, self.hi.0, self.hi.1
        )
    }
}

/// Which direction of the connection a packet travels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnDir {
    /// Same direction as the connection's first packet.
    Original,
    /// The reverse direction.
    Reply,
}

/// The tracked state of a connection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ConnState {
    /// TCP: one direction seen (SYN sent, or mid-stream pickup).
    SynSent,
    /// TCP: SYN+ACK seen, awaiting the final handshake ACK.
    SynRecv,
    /// TCP: both directions confirmed.
    Established,
    /// TCP: the initiator sent FIN first.
    FinWait,
    /// TCP: the responder sent FIN first.
    CloseWait,
    /// TCP: both sides closed; lingers to absorb stragglers.
    TimeWait,
    /// TCP: torn down by RST; lingers briefly.
    Closed,
    /// UDP (or other non-TCP): one direction seen.
    UdpNew,
    /// UDP (or other non-TCP): replies seen.
    UdpEstablished,
    /// ICMP pseudo-connection.
    Icmp,
}

impl ConnState {
    /// Number of distinct states (histogram width).
    pub const COUNT: usize = 10;

    /// All states in histogram order.
    pub const ALL: [ConnState; ConnState::COUNT] = [
        ConnState::SynSent,
        ConnState::SynRecv,
        ConnState::Established,
        ConnState::FinWait,
        ConnState::CloseWait,
        ConnState::TimeWait,
        ConnState::Closed,
        ConnState::UdpNew,
        ConnState::UdpEstablished,
        ConnState::Icmp,
    ];

    /// Histogram index of this state.
    pub fn index(self) -> usize {
        match self {
            ConnState::SynSent => 0,
            ConnState::SynRecv => 1,
            ConnState::Established => 2,
            ConnState::FinWait => 3,
            ConnState::CloseWait => 4,
            ConnState::TimeWait => 5,
            ConnState::Closed => 6,
            ConnState::UdpNew => 7,
            ConnState::UdpEstablished => 8,
            ConnState::Icmp => 9,
        }
    }

    /// Short lowercase name (histogram/JSON label).
    pub fn name(self) -> &'static str {
        match self {
            ConnState::SynSent => "syn_sent",
            ConnState::SynRecv => "syn_recv",
            ConnState::Established => "established",
            ConnState::FinWait => "fin_wait",
            ConnState::CloseWait => "close_wait",
            ConnState::TimeWait => "time_wait",
            ConnState::Closed => "closed",
            ConnState::UdpNew => "udp_new",
            ConnState::UdpEstablished => "udp_established",
            ConnState::Icmp => "icmp",
        }
    }

    /// Whether the connection has confirmed both directions (the
    /// states whose packets a stateful firewall admits as ESTABLISHED).
    pub fn is_established(self) -> bool {
        matches!(
            self,
            ConnState::Established
                | ConnState::FinWait
                | ConnState::CloseWait
                | ConnState::TimeWait
                | ConnState::UdpEstablished
        )
    }

    /// Whether this is a half-open TCP state (the SYN-flood signal).
    pub fn is_half_open(self) -> bool {
        matches!(self, ConnState::SynSent | ConnState::SynRecv)
    }
}

impl fmt::Display for ConnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a single packet relates to the connection table — the match
/// qualifier a stateful firewall rule can test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketState {
    /// Starts or continues the setup of a connection (original
    /// direction, not yet established).
    New,
    /// Belongs to a tracked connection: any reply-direction packet, or
    /// an original-direction packet once the connection is established.
    Established,
    /// Matches no admissible connection (strict-mode mid-stream
    /// segment, or traffic on a closed entry).
    Invalid,
}

/// A connection-level transition worth reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnEvent {
    /// The connection just became established.
    Established,
    /// An established connection just closed (FIN exchange or RST).
    Closed,
}

/// What [`ConnTable::observe`] concluded about one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Observation {
    /// The canonical connection key.
    pub key: ConnKey,
    /// The packet's direction relative to the connection.
    pub dir: ConnDir,
    /// The connection's state after this packet ([`ConnState::Closed`]
    /// when the packet is untracked).
    pub state: ConnState,
    /// The packet's own classification.
    pub packet_state: PacketState,
    /// A connection transition this packet caused, if any.
    pub event: Option<ConnEvent>,
}

/// A connection removed by [`ConnTable::expire`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expired {
    /// The canonical key.
    pub key: ConnKey,
    /// The flow key of the connection's first packet (the identity
    /// the controller knows the flow by).
    pub flow: FlowKey,
    /// The state the connection idled out in.
    pub state: ConnState,
}

/// Per-state idle timeouts. Defaults are scaled to simulation runs
/// (seconds, not conntrack's days): long enough that active flows
/// never idle out mid-run, short enough that dead state leaves the
/// table while a scenario can still observe it happening.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnTimeouts {
    /// SYN_SENT idle timeout.
    pub syn_sent: SimDuration,
    /// SYN_RECV idle timeout.
    pub syn_recv: SimDuration,
    /// ESTABLISHED idle timeout.
    pub established: SimDuration,
    /// FIN_WAIT idle timeout.
    pub fin_wait: SimDuration,
    /// CLOSE_WAIT idle timeout.
    pub close_wait: SimDuration,
    /// TIME_WAIT linger.
    pub time_wait: SimDuration,
    /// CLOSED (post-RST) linger.
    pub closed: SimDuration,
    /// UDP before a reply is seen.
    pub udp_new: SimDuration,
    /// UDP after replies are seen.
    pub udp_established: SimDuration,
    /// ICMP pseudo-connections.
    pub icmp: SimDuration,
}

impl Default for ConnTimeouts {
    fn default() -> Self {
        ConnTimeouts {
            syn_sent: SimDuration::from_secs(10),
            syn_recv: SimDuration::from_secs(10),
            established: SimDuration::from_secs(60),
            fin_wait: SimDuration::from_secs(20),
            close_wait: SimDuration::from_secs(20),
            time_wait: SimDuration::from_secs(10),
            closed: SimDuration::from_secs(1),
            udp_new: SimDuration::from_secs(10),
            udp_established: SimDuration::from_secs(30),
            icmp: SimDuration::from_secs(5),
        }
    }
}

impl ConnTimeouts {
    /// The idle timeout applicable in `state`.
    pub fn for_state(&self, state: ConnState) -> SimDuration {
        match state {
            ConnState::SynSent => self.syn_sent,
            ConnState::SynRecv => self.syn_recv,
            ConnState::Established => self.established,
            ConnState::FinWait => self.fin_wait,
            ConnState::CloseWait => self.close_wait,
            ConnState::TimeWait => self.time_wait,
            ConnState::Closed => self.closed,
            ConnState::UdpNew => self.udp_new,
            ConnState::UdpEstablished => self.udp_established,
            ConnState::Icmp => self.icmp,
        }
    }
}

/// One tracked connection.
#[derive(Clone, Debug)]
pub struct Conn {
    state: ConnState,
    initiator: (Ipv4Addr, u16),
    first_key: FlowKey,
    last_seen: SimTime,
    deadline: SimTime,
    seq: u64,
    /// The wheel slot this connection is armed in: its entry sits at
    /// `(armed_slot, seq)`. The deadline's own slot, or one past the
    /// `expire` call that found the deadline inside its slot but not
    /// yet due.
    armed_slot: u64,
    orig_head: Vec<u8>,
    reply_head: Vec<u8>,
    orig_pkts: u64,
    reply_pkts: u64,
}

impl Conn {
    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// The flow key of the first packet (original direction).
    pub fn first_key(&self) -> &FlowKey {
        &self.first_key
    }

    /// The first payload bytes seen in each direction:
    /// `(original, reply)`.
    pub fn heads(&self) -> (&[u8], &[u8]) {
        (&self.orig_head, &self.reply_head)
    }

    /// Packets seen per direction: `(original, reply)`.
    pub fn packets(&self) -> (u64, u64) {
        (self.orig_pkts, self.reply_pkts)
    }

    /// When the connection last saw a packet.
    pub fn last_seen(&self) -> SimTime {
        self.last_seen
    }
}

/// Counter snapshot of a [`ConnTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Live entries.
    pub entries: u64,
    /// Connections ever inserted.
    pub insertions: u64,
    /// Entries evicted by the capacity bound (LRU order).
    pub evictions: u64,
    /// Entries removed by idle expiry.
    pub expirations: u64,
    /// Packets classified invalid.
    pub invalid_packets: u64,
    /// Connections that ever reached an established state.
    pub established_total: u64,
    /// Established connections that closed (teardown or expiry).
    pub closed_total: u64,
    /// Live entries per state, indexed by [`ConnState::index`].
    pub states: [u64; ConnState::COUNT],
}

impl TableStats {
    /// Renders the snapshot as a JSON object (hand-rolled: the state
    /// histogram keys by state name, which serde derives can't).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"entries\": {},\n", self.entries));
        s.push_str(&format!("  \"insertions\": {},\n", self.insertions));
        s.push_str(&format!("  \"evictions\": {},\n", self.evictions));
        s.push_str(&format!("  \"expirations\": {},\n", self.expirations));
        s.push_str(&format!(
            "  \"invalid_packets\": {},\n",
            self.invalid_packets
        ));
        s.push_str(&format!(
            "  \"established_total\": {},\n",
            self.established_total
        ));
        s.push_str(&format!("  \"closed_total\": {},\n", self.closed_total));
        s.push_str("  \"states\": {");
        let mut first = true;
        for st in ConnState::ALL {
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {}", st.name(), self.states[st.index()]));
        }
        s.push_str("}\n}");
        s
    }
}

/// The deterministic connection-tracking table.
#[derive(Clone)]
pub struct ConnTable {
    conns: BTreeMap<ConnKey, Conn>,
    /// Timer wheel: `(armed slot, arming seq) -> key`, one entry per
    /// connection.
    wheel: BTreeMap<(u64, u64), ConnKey>,
    /// LRU index: `(last_seen, arming seq) -> key`, one entry per
    /// connection. The first entry is the eviction victim.
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

impl fmt::Debug for ConnTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnTable")
            .field("entries", &self.conns.len())
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for ConnTable {
    fn default() -> Self {
        ConnTable::new()
    }
}

impl ConnTable {
    /// An empty table with the default capacity (65 536 entries).
    pub fn new() -> Self {
        ConnTable {
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

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a connection by canonical key.
    pub fn get(&self, key: &ConnKey) -> Option<&Conn> {
        self.conns.get(key)
    }

    /// The stashed payload heads of a connection:
    /// `(original, reply)`.
    pub fn heads(&self, key: &ConnKey) -> Option<(&[u8], &[u8])> {
        self.conns.get(key).map(|c| c.heads())
    }

    /// Current half-open connection count for an initiator address.
    pub fn half_open(&self, src: Ipv4Addr) -> u32 {
        self.half_open.get(&src).copied().unwrap_or(0)
    }

    /// Sizes of the two ordered indexes: `(wheel, lru)`.
    #[cfg(test)]
    fn index_sizes(&self) -> (usize, usize) {
        (self.wheel.len(), self.lru.len())
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

    /// Convenience wrapper: observes a full packet (IPv4 only).
    pub fn observe_packet(&mut self, pkt: &Packet, now: SimTime) -> Option<Observation> {
        let key = FlowKey::of(pkt)?;
        let flags = pkt.tcp().map(|t| t.flags);
        let payload = pkt
            .ipv4()
            .and_then(|ip| ip.transport.payload())
            .map(|p| p.content())
            .unwrap_or(&[]);
        Some(self.observe(&key, flags, payload, now))
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

        // Touch: new arming sequence, fresh deadline and LRU position;
        // the connection's one entry in each index moves with it.
        self.wheel.remove(&(conn.armed_slot, conn.seq));
        self.lru.remove(&(conn.last_seen, conn.seq));
        self.seq += 1;
        conn.seq = self.seq;
        conn.last_seen = now;
        conn.state = new_state;
        conn.deadline = now + self.timeouts.for_state(new_state);
        conn.armed_slot = conn.deadline.as_nanos() / SLOT_NANOS;
        let initiator_ip = conn.initiator.0;
        self.wheel.insert((conn.armed_slot, conn.seq), ck);
        self.lru.insert((now, conn.seq), ck);

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
        // livesec-lint: allow(hot-path-alloc, reason = "runs once per new flow, not per packet; Vec::new is capacity-0")
        let mut head = Vec::new();
        if !payload.is_empty() {
            head.extend_from_slice(&payload[..payload.len().min(self.head_bytes)]);
        }
        let deadline = now + self.timeouts.for_state(state);
        let conn = Conn {
            state,
            initiator: ep,
            first_key: *key,
            last_seen: now,
            deadline,
            seq: self.seq,
            armed_slot: deadline.as_nanos() / SLOT_NANOS,
            orig_head: head,
            // livesec-lint: allow(hot-path-alloc, reason = "capacity-0 Vec on flow creation; grows only when reply head bytes arrive")
            reply_head: Vec::new(),
            orig_pkts: 1,
            reply_pkts: 0,
        };
        self.wheel.insert((conn.armed_slot, conn.seq), ck);
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
        while let Some(armed) = self.wheel.first_entry() {
            let (slot, seq) = *armed.key();
            if slot > now_slot {
                break;
            }
            let ck = armed.remove();
            let Entry::Occupied(mut entry) = self.conns.entry(ck) else {
                continue;
            };
            if entry.get().deadline > now {
                // Slot boundary rounding: due within this slot but not
                // yet. Re-arm one slot ahead; the deadline re-check
                // keeps this exact.
                entry.get_mut().armed_slot = now_slot + 1;
                self.wheel.insert((now_slot + 1, seq), ck);
                continue;
            }
            let conn = entry.remove();
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
        let Some((_, ck)) = self.lru.pop_first() else {
            return;
        };
        let Some(conn) = self.conns.remove(&ck) else {
            return;
        };
        self.wheel.remove(&(conn.armed_slot, conn.seq));
        self.state_counts[conn.state.index()] -= 1;
        self.note_half_open(conn.initiator.0, Some(conn.state), None);
        self.evictions += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::MacAddr;
    use proptest::prelude::*;

    fn key(src: [u8; 4], sp: u16, dst: [u8; 4], dp: u16, proto: u8) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: src.into(),
            nw_dst: dst.into(),
            nw_proto: proto,
            tp_src: sp,
            tp_dst: dp,
        }
    }

    fn tcp_key() -> FlowKey {
        key([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 80, 6)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    const SYN: TcpFlags = TcpFlags::SYN;
    const ACK: TcpFlags = TcpFlags::ACK;

    #[test]
    fn canonicalization_is_direction_free() {
        let k = tcp_key();
        assert_eq!(ConnKey::of(&k), ConnKey::of(&k.reversed()));
        let icmp = key([10, 0, 0, 9], 77, [10, 0, 0, 2], 88, 1);
        // ICMP ports are zeroed before canonicalization.
        assert_eq!(ConnKey::of(&icmp).lo.1, 0);
        assert_eq!(ConnKey::of(&icmp).hi.1, 0);
    }

    #[test]
    fn full_handshake_establishes() {
        let mut ct = ConnTable::new();
        let k = tcp_key();
        let o1 = ct.observe(&k, Some(SYN), &[], t(0));
        assert_eq!(o1.state, ConnState::SynSent);
        assert_eq!(o1.packet_state, PacketState::New);
        assert_eq!(ct.half_open("10.0.0.1".parse().unwrap()), 1);

        let o2 = ct.observe(&k.reversed(), Some(SYN | ACK), &[], t(1));
        assert_eq!(o2.state, ConnState::SynRecv);
        assert_eq!(o2.dir, ConnDir::Reply);
        assert_eq!(o2.packet_state, PacketState::Established);

        let o3 = ct.observe(&k, Some(ACK), &[], t(2));
        assert_eq!(o3.state, ConnState::Established);
        assert_eq!(o3.event, Some(ConnEvent::Established));
        assert_eq!(ct.half_open("10.0.0.1".parse().unwrap()), 0);
        assert_eq!(ct.stats().established_total, 1);
    }

    #[test]
    fn fin_exchange_reaches_time_wait() {
        let mut ct = ConnTable::new();
        let k = tcp_key();
        ct.observe(&k, Some(SYN), &[], t(0));
        ct.observe(&k.reversed(), Some(SYN | ACK), &[], t(1));
        ct.observe(&k, Some(ACK), &[], t(2));
        let o = ct.observe(&k, Some(TcpFlags::FIN | ACK), &[], t(3));
        assert_eq!(o.state, ConnState::FinWait);
        assert_eq!(o.event, None);
        let o = ct.observe(&k.reversed(), Some(TcpFlags::FIN | ACK), &[], t(4));
        assert_eq!(o.state, ConnState::TimeWait);
        assert_eq!(o.event, Some(ConnEvent::Closed));
        assert_eq!(ct.stats().closed_total, 1);
    }

    #[test]
    fn rst_tears_down() {
        let mut ct = ConnTable::new();
        let k = tcp_key();
        ct.observe(&k, Some(SYN), &[], t(0));
        ct.observe(&k.reversed(), Some(SYN | ACK), &[], t(1));
        ct.observe(&k, Some(ACK), &[], t(2));
        let o = ct.observe(&k, Some(TcpFlags::RST), &[], t(3));
        assert_eq!(o.state, ConnState::Closed);
        assert_eq!(o.event, Some(ConnEvent::Closed));
        // Traffic after teardown is invalid.
        let o = ct.observe(&k, Some(ACK), &[], t(4));
        assert_eq!(o.packet_state, PacketState::Invalid);
        assert_eq!(ct.stats().invalid_packets, 1);
    }

    #[test]
    fn rst_before_establishment_closes_without_event() {
        let mut ct = ConnTable::new();
        let k = tcp_key();
        ct.observe(&k, Some(SYN), &[], t(0));
        let o = ct.observe(&k.reversed(), Some(TcpFlags::RST | ACK), &[], t(1));
        assert_eq!(o.state, ConnState::Closed);
        assert_eq!(o.event, None, "never established, nothing closed");
        assert_eq!(ct.stats().closed_total, 0);
    }

    #[test]
    fn mid_stream_pickup_establishes_on_reply() {
        // The simulator's applications exchange data without a
        // handshake; loose mode must still reach ESTABLISHED.
        let mut ct = ConnTable::new();
        let k = tcp_key();
        let o = ct.observe(&k, Some(TcpFlags::PSH | ACK), b"GET /", t(0));
        assert_eq!(o.state, ConnState::SynSent);
        let o = ct.observe(
            &k.reversed(),
            Some(TcpFlags::PSH | ACK),
            b"HTTP/1.1 200",
            t(1),
        );
        assert_eq!(o.state, ConnState::Established);
        assert_eq!(o.event, Some(ConnEvent::Established));
    }

    #[test]
    fn strict_mode_rejects_mid_stream() {
        let mut ct = ConnTable::new().with_strict();
        let k = tcp_key();
        let o = ct.observe(&k, Some(TcpFlags::PSH | ACK), b"data", t(0));
        assert_eq!(o.packet_state, PacketState::Invalid);
        assert!(ct.is_empty());
    }

    #[test]
    fn udp_pseudo_states() {
        let mut ct = ConnTable::new();
        let k = key([10, 0, 0, 1], 5353, [10, 0, 0, 2], 53, 17);
        let o = ct.observe(&k, None, b"query", t(0));
        assert_eq!(o.state, ConnState::UdpNew);
        assert_eq!(o.packet_state, PacketState::New);
        let o = ct.observe(&k.reversed(), None, b"answer", t(1));
        assert_eq!(o.state, ConnState::UdpEstablished);
        assert_eq!(o.event, Some(ConnEvent::Established));
        assert_eq!(o.packet_state, PacketState::Established);
    }

    #[test]
    fn icmp_pseudo_state() {
        let mut ct = ConnTable::new();
        let k = key([10, 0, 0, 1], 0, [10, 0, 0, 2], 0, 1);
        let o = ct.observe(&k, None, &[], t(0));
        assert_eq!(o.state, ConnState::Icmp);
        let o = ct.observe(&k.reversed(), None, &[], t(1));
        assert_eq!(o.state, ConnState::Icmp);
        assert_eq!(o.packet_state, PacketState::Established, "reply direction");
    }

    #[test]
    fn heads_reassemble_both_directions() {
        let mut ct = ConnTable::new().with_head_bytes(8);
        let k = tcp_key();
        ct.observe(&k, Some(TcpFlags::PSH | ACK), b"abcdef", t(0));
        ct.observe(&k.reversed(), Some(TcpFlags::PSH | ACK), b"012345", t(1));
        ct.observe(&k, Some(TcpFlags::PSH | ACK), b"ghijkl", t(2));
        let (orig, reply) = ct.heads(&ConnKey::of(&k)).unwrap();
        assert_eq!(orig, b"abcdefgh", "capped at head_bytes");
        assert_eq!(reply, b"012345");
    }

    #[test]
    fn expiry_follows_per_state_timeouts() {
        let timeouts = ConnTimeouts {
            syn_sent: SimDuration::from_millis(50),
            established: SimDuration::from_millis(500),
            ..ConnTimeouts::default()
        };
        let mut ct = ConnTable::new().with_timeouts(timeouts);
        let half = tcp_key();
        let full = key([10, 0, 0, 3], 40_001, [10, 0, 0, 4], 80, 6);
        ct.observe(&half, Some(SYN), &[], t(0));
        ct.observe(&full, Some(TcpFlags::PSH | ACK), b"x", t(0));
        ct.observe(&full.reversed(), Some(TcpFlags::PSH | ACK), b"y", t(1));

        let gone = ct.expire(t(100));
        assert_eq!(gone.len(), 1, "only the half-open entry idles out");
        assert_eq!(gone[0].state, ConnState::SynSent);
        assert_eq!(gone[0].flow, half);
        assert_eq!(ct.len(), 1);

        let gone = ct.expire(t(1000));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].state, ConnState::Established);
        assert_eq!(ct.stats().closed_total, 1, "expiry closes established");
        assert!(ct.is_empty());
    }

    #[test]
    fn touch_postpones_expiry() {
        let timeouts = ConnTimeouts {
            syn_sent: SimDuration::from_millis(100),
            ..ConnTimeouts::default()
        };
        let mut ct = ConnTable::new().with_timeouts(timeouts);
        let k = tcp_key();
        ct.observe(&k, Some(SYN), &[], t(0));
        ct.observe(&k, Some(SYN), &[], t(80)); // retransmit touches
        assert!(ct.expire(t(150)).is_empty(), "deadline moved to 180");
        assert_eq!(ct.expire(t(200)).len(), 1);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_bounded() {
        let mut ct = ConnTable::new().with_capacity(3);
        let keys: Vec<FlowKey> = (0..5u16)
            .map(|i| key([10, 0, 1, i as u8], 1000 + i, [10, 0, 0, 2], 80, 6))
            .collect();
        for (i, k) in keys.iter().enumerate().take(3) {
            ct.observe(k, Some(SYN), &[], t(i as u64));
        }
        // Touch the oldest so the second-oldest becomes the victim.
        ct.observe(&keys[0], Some(SYN), &[], t(10));
        ct.observe(&keys[3], Some(SYN), &[], t(11));
        assert_eq!(ct.len(), 3);
        assert!(ct.get(&ConnKey::of(&keys[1])).is_none(), "LRU evicted");
        assert!(ct.get(&ConnKey::of(&keys[0])).is_some());
        ct.observe(&keys[4], Some(SYN), &[], t(12));
        assert_eq!(ct.len(), 3);
        assert_eq!(ct.stats().evictions, 2);
    }

    #[test]
    fn indexes_hold_one_entry_per_live_connection() {
        // The wheel and the LRU index used to gain an entry per packet
        // and shed them only on expiry or eviction: 100 000 packets on
        // 16 long-lived connections left 100 000 entries in each.
        let mut ct = ConnTable::new();
        let keys: Vec<FlowKey> = (0..16u16)
            .map(|i| key([10, 0, 1, i as u8], 1000 + i, [10, 0, 0, 2], 80, 6))
            .collect();
        let data = Some(TcpFlags::PSH | ACK);
        for i in 0..100_000u64 {
            let k = &keys[(i % 16) as usize];
            let k = if i % 3 == 0 { k.reversed() } else { *k };
            ct.observe(&k, data, b"x", t(i / 10));
        }
        assert_eq!(ct.len(), 16);
        assert_eq!(ct.index_sizes(), (16, 16));

        // Again with expiry interleaved, on a 50 ms timeout: half the
        // connections pause long enough to idle out and come back, some
        // `expire` calls find nothing due, some re-arm inside a slot,
        // and the quiet tail empties the table.
        let mut ct = ct.with_timeouts(ConnTimeouts {
            syn_sent: SimDuration::from_millis(50),
            established: SimDuration::from_millis(50),
            ..ConnTimeouts::default()
        });
        for i in 0..100_000u64 {
            let now = SimTime::from_nanos(10_000_000_000 + i * 700_000);
            let idx = (i % 16) as usize;
            let paused = idx >= 8 && (i / 1000) % 2 == 1;
            if i < 90_000 && !paused {
                ct.observe(&keys[idx], data, b"x", now);
            }
            if i % 7 == 0 {
                ct.expire(now);
            }
            assert_eq!(ct.index_sizes(), (ct.len(), ct.len()), "step {i}");
        }
        assert!(ct.is_empty(), "everything idled out in the tail");
        let stats = ct.stats();
        assert!(
            stats.insertions > 16 + 8 * 40,
            "paused connections came back"
        );
        assert_eq!(stats.expirations, stats.insertions);
    }

    #[test]
    fn half_open_counts_track_syn_flood_shape() {
        let mut ct = ConnTable::new();
        let src: Ipv4Addr = "10.0.0.1".parse().unwrap();
        for i in 0..20u16 {
            let k = key([10, 0, 0, 1], 30_000 + i, [10, 0, 0, 2], 80, 6);
            ct.observe(&k, Some(SYN), &[], t(i as u64));
        }
        assert_eq!(ct.half_open(src), 20);
        // One completes: the count drops.
        let k0 = key([10, 0, 0, 1], 30_000, [10, 0, 0, 2], 80, 6);
        ct.observe(&k0.reversed(), Some(SYN | ACK), &[], t(30));
        ct.observe(&k0, Some(ACK), &[], t(31));
        assert_eq!(ct.half_open(src), 19);
    }

    #[test]
    fn stats_histogram_matches_states() {
        let mut ct = ConnTable::new();
        ct.observe(&tcp_key(), Some(SYN), &[], t(0));
        let udp = key([10, 0, 0, 5], 999, [10, 0, 0, 6], 53, 17);
        ct.observe(&udp, None, b"q", t(0));
        let s = ct.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.states[ConnState::SynSent.index()], 1);
        assert_eq!(s.states[ConnState::UdpNew.index()], 1);
        let json = s.to_json();
        assert!(json.contains("\"syn_sent\": 1"), "{json}");
    }

    #[test]
    fn same_sequence_yields_identical_tables() {
        // Determinism smoke test: two tables fed the same interleaved
        // sequence report identical stats and expiry order.
        let run = || {
            let mut ct = ConnTable::new().with_capacity(8);
            let mut log = Vec::new();
            for i in 0..32u16 {
                let k = key(
                    [10, 0, (i % 4) as u8, (i % 8) as u8],
                    1000 + i,
                    [10, 0, 0, 2],
                    80,
                    6,
                );
                let o = ct.observe(&k, Some(SYN), &[], t(i as u64));
                log.push(format!("{:?}", o));
                if i % 3 == 0 {
                    let o = ct.observe(&k.reversed(), Some(SYN | ACK), &[], t(i as u64 + 1));
                    log.push(format!("{:?}", o));
                }
            }
            for e in ct.expire(t(120_000)) {
                log.push(format!("{:?}", e));
            }
            (log, format!("{:?}", ct.stats()))
        };
        assert_eq!(run(), run());
    }

    proptest! {
        #[test]
        fn prop_canonicalization_maps_reverse_to_same_key(
            a in any::<u32>(), b in any::<u32>(),
            sp in any::<u16>(), dp in any::<u16>(),
            proto_sel in any::<u8>(),
        ) {
            let proto = [1u8, 6, 17, 47][(proto_sel % 4) as usize];
            let k = FlowKey {
                vlan: None,
                dl_src: MacAddr::from_u64(7),
                dl_dst: MacAddr::from_u64(8),
                dl_type: 0x0800,
                nw_src: Ipv4Addr::from(a),
                nw_dst: Ipv4Addr::from(b),
                nw_proto: proto,
                tp_src: sp,
                tp_dst: dp,
            };
            prop_assert_eq!(ConnKey::of(&k), ConnKey::of(&k.reversed()));
            // lo <= hi is the canonical invariant.
            let ck = ConnKey::of(&k);
            prop_assert!(ck.lo <= ck.hi);
        }
    }
}
