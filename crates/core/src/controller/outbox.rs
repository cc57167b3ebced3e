//! The outbox: the flow entries that records put on switches, and the
//! per-switch batches every control message of one dispatch travels
//! in.

use super::*;

/// Every control message of the current event dispatch, for every
/// switch, and the batching counters of `fast_path_stats`.
///
/// Each frame is written once, in place, into one arena in send
/// order; `runs` records which switch's batch each stretch of the
/// arena belongs to. [`Outbox::flush`] copies each batch into one
/// payload, a recycled control buffer grown to the batch's size if it
/// must be, and clears the arena but keeps its capacity, so between
/// dispatches the controller holds one buffer, not one per switch.
#[derive(Debug)]
pub(super) struct Outbox {
    xid: u32,
    /// The switches written to this dispatch, in first-use order.
    batches: Vec<TxBatch>,
    arena: Vec<u8>,
    /// `(batch, start, end)`: arena bytes `start..end` belong to the
    /// batch at that index. Back-to-back frames for one batch share a
    /// run.
    runs: Vec<(usize, usize, usize)>,
    pub(super) stats: FastPathStats,
}

/// Where [`Outbox::assemble`] gets each payload's buffer and sends it:
/// the simulator's control channel, or a test's list.
pub(super) trait Channel {
    /// An empty buffer for the next payload.
    fn buffer(&mut self) -> Vec<u8>;
    /// Sends `payload` to `node`.
    fn send(&mut self, node: NodeId, payload: Vec<u8>);
}

impl Channel for Ctx<'_> {
    fn buffer(&mut self) -> Vec<u8> {
        self.control_buf()
    }

    fn send(&mut self, node: NodeId, payload: Vec<u8>) {
        self.send_control(node, payload);
    }
}

/// What one switch's payload holds so far.
#[derive(Debug)]
struct TxBatch {
    node: NodeId,
    len: usize,
    msgs: u64,
    has_flow_mod: bool,
}

/// One flow entry that a flow record, a fast-pass record, a standing
/// block or a denial puts on one switch — the single derivation behind
/// install and repair ([`Entry::add`]), teardown ([`delete_strict`]) and
/// the reconciliation audit's desired state, so what is installed and
/// what is defended cannot disagree. Borrows its actions from the
/// record.
pub(super) struct Entry<'a> {
    pub(super) dpid: u64,
    pub(super) matcher: Match,
    pub(super) priority: u16,
    actions: &'a [Action],
    pub(super) cookie: u64,
    notify_removed: bool,
    idle: Option<u64>,
}

impl<'a> Entry<'a> {
    /// Both directions of a compiled program pair, forward first. Each
    /// program's ingress entry carries its direction's cookie and asks
    /// for a removal notification (the idle-out reports the bytes it
    /// carried); mid-path entries carry neither.
    pub(super) fn of_programs(
        forward: &'a SteeringProgram,
        reverse: &'a SteeringProgram,
        source: ProofSource,
        idle: SimDuration,
    ) -> impl Iterator<Item = Entry<'a>> {
        let (fwd_cookie, rev_cookie) = ingress_cookies(source);
        [(forward, fwd_cookie), (reverse, rev_cookie)]
            .into_iter()
            .flat_map(move |(program, cookie)| {
                program.entries.iter().enumerate().map(move |(i, e)| Entry {
                    dpid: e.dpid,
                    matcher: e.matcher,
                    priority: e.priority,
                    actions: &e.actions,
                    cookie: if i == 0 { cookie } else { 0 },
                    notify_removed: i == 0,
                    idle: Some(idle.as_nanos()),
                })
            })
    }

    /// A drop entry above every steering and fast-pass entry: a
    /// standing attack block ([`super::BLOCK_COOKIE`], never expires)
    /// or a policy denial ([`super::DENY_COOKIE`], idles out).
    pub(super) fn drop(dpid: u64, matcher: Match, cookie: u64, idle: Option<SimDuration>) -> Self {
        Entry {
            dpid,
            matcher,
            priority: BLOCK_PRIORITY,
            actions: &[],
            cookie,
            notify_removed: false,
            idle: idle.map(SimDuration::as_nanos),
        }
    }

    /// Switch `dpid`'s uplink guard ([`super::GUARD_COOKIE`], never
    /// expires): drops ARP arriving on `uplink`. The legacy fabric
    /// floods each location announcement to every uplink, and these
    /// echoes locate nobody, so they die at the switch instead of
    /// becoming packet-ins. Every other entry outranks it.
    pub(super) fn guard(dpid: u64, uplink: u32) -> Self {
        Entry {
            dpid,
            matcher: Match::any()
                .with_in_port(uplink)
                .with_dl_type(EtherType::Arp.as_u16()),
            priority: GUARD_PRIORITY,
            actions: &[],
            cookie: GUARD_COOKIE,
            notify_removed: false,
            idle: None,
        }
    }

    /// The flow-mod that installs (or replaces) this entry.
    pub(super) fn add(&self) -> FlowModRef<'_> {
        FlowModRef {
            command: FlowModCommand::Add,
            matcher: &self.matcher,
            priority: self.priority,
            actions: self.actions,
            idle_timeout: self.idle,
            hard_timeout: None,
            cookie: self.cookie,
            notify_removed: self.notify_removed,
        }
    }
}

/// The flow-mod that deletes exactly the `(matcher, priority)` entry.
pub(super) fn delete_strict(matcher: &Match, priority: u16) -> FlowModRef<'_> {
    FlowModRef {
        command: FlowModCommand::DeleteStrict,
        matcher,
        priority,
        actions: &[],
        idle_timeout: None,
        hard_timeout: None,
        cookie: 0,
        notify_removed: false,
    }
}

/// The `(forward, reverse)` ingress-entry cookies of a program pair.
pub(super) const fn ingress_cookies(source: ProofSource) -> (u64, u64) {
    match source {
        ProofSource::Steering => (INGRESS_COOKIE, REVERSE_COOKIE),
        ProofSource::FastPass => (FASTPASS_COOKIE, FASTPASS_REV_COOKIE),
    }
}

impl Outbox {
    pub(super) fn new() -> Self {
        Outbox {
            xid: 1,
            batches: Vec::new(),
            arena: Vec::new(),
            runs: Vec::new(),
            stats: FastPathStats::default(),
        }
    }

    /// Queues `msg` for `node`; everything queued during one event
    /// dispatch goes out as a single per-switch payload (see
    /// [`Outbox::flush`]).
    pub(super) fn send(&mut self, node: NodeId, msg: &OfMessage) {
        let is_flow_mod = matches!(msg, OfMessage::FlowMod { .. });
        self.queue(node, is_flow_mod, |xid, buf| {
            codec::encode_into(msg, xid, buf);
        });
    }

    /// Queues the flow-mod `fm` for `node`.
    pub(super) fn flow_mod(&mut self, node: NodeId, fm: &FlowModRef<'_>) {
        self.queue(node, true, |xid, buf| fm.encode_into(xid, buf));
    }

    /// Queues a packet-out that releases `pkt` from `node` with
    /// `actions`; the packet is serialized straight into the payload.
    pub(super) fn packet_out(
        &mut self,
        node: NodeId,
        in_port: Option<u32>,
        actions: &[Action],
        pkt: &Packet,
    ) {
        self.queue(node, false, |xid, buf| {
            codec::encode_packet_out_into(in_port, actions, pkt, xid, buf);
        });
    }

    /// Queues a packet-out that releases the delivered frame `frame`
    /// from `node` with `actions`, its bytes as they stand.
    pub(super) fn release(
        &mut self,
        node: NodeId,
        in_port: Option<u32>,
        actions: &[Action],
        frame: &[u8],
    ) {
        self.queue(node, false, |xid, buf| {
            codec::encode_frame_out_into(in_port, actions, frame, xid, buf);
        });
    }

    /// Writes one frame with the next transaction id at the end of the
    /// arena and books it to `node`'s batch.
    fn queue(&mut self, node: NodeId, is_flow_mod: bool, write: impl FnOnce(u32, &mut Vec<u8>)) {
        let xid = self.next_xid();
        self.stats.messages_batched += 1;
        let batch = self
            .batches
            .iter()
            .position(|b| b.node == node)
            .unwrap_or_else(|| {
                self.batches.push(TxBatch {
                    node,
                    len: 0,
                    msgs: 0,
                    has_flow_mod: false,
                });
                self.batches.len() - 1
            });
        self.append(batch, is_flow_mod, |buf| write(xid, buf));
    }

    fn next_xid(&mut self) -> u32 {
        let xid = self.xid;
        self.xid = xid.wrapping_add(1);
        xid
    }

    /// Books the frame `write` puts at the end of the arena to the
    /// batch at index `batch`.
    fn append(&mut self, batch: usize, is_flow_mod: bool, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.arena.len();
        write(&mut self.arena);
        let end = self.arena.len();
        if let Some(b) = self.batches.get_mut(batch) {
            b.len += end - start;
            b.msgs += 1;
            b.has_flow_mod |= is_flow_mod;
        }
        match self.runs.last_mut() {
            Some((b, _, run_end)) if *b == batch && *run_end == start => *run_end = end,
            _ => self.runs.push((batch, start, end)),
        }
    }

    /// Transmits everything queued by [`Outbox::send`] and its
    /// siblings: one control payload per switch, in first-use order. A
    /// batch that carries flow-mods is terminated with a barrier
    /// request, so the switch acknowledges only after every entry of
    /// the batch is applied — per-switch ordering is by in-order
    /// processing of the concatenated frames, and the barrier
    /// delimits the transaction.
    pub(super) fn flush(&mut self, ctx: &mut Ctx<'_>) {
        self.seal();
        self.assemble(ctx);
    }

    /// Ends each batch that carries a flow-mod with a barrier request,
    /// in first-use order.
    fn seal(&mut self) {
        for batch in 0..self.batches.len() {
            if self.batches.get(batch).is_some_and(|b| b.has_flow_mod) {
                let xid = self.next_xid();
                self.append(batch, false, |buf| {
                    codec::encode_into(&OfMessage::BarrierRequest, xid, buf);
                });
            }
        }
    }

    /// Sends each batch's frames, copied into one of `channel`'s
    /// buffers (reserved exactly, if it must grow), over `channel`, in
    /// first-use order, and empties the outbox.
    fn assemble(&mut self, channel: &mut impl Channel) {
        // Starts are distinct, so the order is total.
        self.runs.sort_unstable();
        let mut runs = self.runs.iter().peekable();
        for (i, batch) in self.batches.iter().enumerate() {
            let mut payload = channel.buffer();
            payload.reserve_exact(batch.len);
            while let Some(&(_, start, end)) = runs.next_if(|r| r.0 == i) {
                payload.extend_from_slice(self.arena.get(start..end).unwrap_or_default());
            }
            self.stats.batches_flushed += 1;
            self.stats.max_batch_len = self.stats.max_batch_len.max(batch.msgs);
            channel.send(batch.node, payload);
        }
        self.batches.clear();
        self.runs.clear();
        self.arena.clear();
    }
}

impl Controller {
    /// Transmits everything this dispatch queued (see
    /// [`Outbox::flush`]).
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<'_>) {
        self.tx.flush(ctx);
    }

    /// The node of switch `dpid`, if it is registered.
    pub(super) fn node_of(&self, dpid: u64) -> Option<NodeId> {
        self.topo.switch(dpid).map(|s| s.node)
    }

    pub(super) fn send_to_dpid(&mut self, dpid: u64, msg: &OfMessage) {
        if let Some(node) = self.node_of(dpid) {
            self.tx.send(node, msg);
        }
    }

    /// Queues `msg` for every registered switch, in dpid order.
    pub(super) fn send_to_all(&mut self, msg: &OfMessage) {
        for s in self.topo.switches() {
            self.tx.send(s.node, msg);
        }
    }

    /// Queues the flow-mod installing each of `entries`. They borrow
    /// from a record the caller holds, never from `self`.
    pub(super) fn install<'a>(&mut self, entries: impl IntoIterator<Item = Entry<'a>>) {
        for e in entries {
            if let Some(node) = self.node_of(e.dpid) {
                self.tx.flow_mod(node, &e.add());
            }
        }
    }

    /// Queues the strict delete of each of `entries` — the inverse of
    /// [`Controller::install`].
    pub(super) fn uninstall<'a>(&mut self, entries: impl IntoIterator<Item = Entry<'a>>) {
        for e in entries {
            if let Some(node) = self.node_of(e.dpid) {
                self.tx
                    .flow_mod(node, &delete_strict(&e.matcher, e.priority));
            }
        }
    }

    /// Emits a controller-made frame out of one port of a switch.
    pub(super) fn emit(&mut self, dpid: u64, port: u32, pkt: &Packet) {
        let out = Action::Output(livesec_openflow::OutPort::Physical(port));
        if let Some(node) = self.node_of(dpid) {
            self.tx.packet_out(node, None, &[out], pkt);
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// A channel that keeps what is sent, each payload in a new buffer.
    impl Channel for Vec<(NodeId, Vec<u8>)> {
        fn buffer(&mut self) -> Vec<u8> {
            Vec::new()
        }

        fn send(&mut self, node: NodeId, payload: Vec<u8>) {
            self.push((node, payload));
        }
    }

    /// Takes everything the handlers queued since the last flush, as
    /// `(switch node, message)` in send order per switch.
    pub(in crate::controller) fn drain(c: &mut Controller) -> Vec<(NodeId, OfMessage)> {
        let mut payloads = Vec::new();
        c.tx.assemble(&mut payloads);
        let mut out = Vec::new();
        for (node, payload) in payloads {
            let msgs = codec::decode_all(&payload).expect("the controller's own encoding");
            out.extend(msgs.into_iter().map(|(m, _)| (node, m)));
        }
        out
    }

    #[test]
    fn interleaved_frames_leave_as_one_exact_payload_per_switch() {
        let (a, b) = (NodeId::from_index(4), NodeId::from_index(9));
        let m = Match::any().with_dl_dst(MacAddr::from_u64(7));
        let out = [Action::Output(livesec_openflow::OutPort::Physical(2))];
        let pkt = arp_frame(ArpPacket::request(
            MacAddr::from_u64(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        let mut tx = Outbox::new();
        tx.send(a, &OfMessage::EchoRequest(1)); // xid 1
        tx.flow_mod(b, &delete_strict(&m, 5)); // xid 2
        tx.flow_mod(a, &delete_strict(&m, 6)); // xid 3
        tx.packet_out(a, Some(3), &out, &pkt); // xid 4, same run as 3
        tx.send(b, &OfMessage::EchoRequest(2)); // xid 5
        tx.seal(); // barriers: a gets xid 6, b xid 7
        let mut payloads = Vec::new();
        tx.assemble(&mut payloads);

        let fm = |priority| delete_strict(&m, priority).to_message();
        let packet_out = OfMessage::PacketOut {
            in_port: Some(3),
            actions: out.as_slice().into(),
            data: wire::serialize(&pkt),
        };
        let want = [
            (
                a,
                vec![
                    (OfMessage::EchoRequest(1), 1),
                    (fm(6), 3),
                    (packet_out, 4),
                    (OfMessage::BarrierRequest, 6),
                ],
            ),
            (
                b,
                vec![
                    (fm(5), 2),
                    (OfMessage::EchoRequest(2), 5),
                    (OfMessage::BarrierRequest, 7),
                ],
            ),
        ];
        assert_eq!(payloads.len(), want.len());
        for ((node, payload), (want_node, want_msgs)) in payloads.iter().zip(want) {
            assert_eq!(*node, want_node);
            assert_eq!(
                payload.capacity(),
                payload.len(),
                "a new buffer, exact size"
            );
            assert_eq!(codec::decode_all(payload).unwrap(), want_msgs);
        }
        assert!(tx.arena.is_empty() && tx.runs.is_empty() && tx.batches.is_empty());
        assert_eq!(tx.stats.batches_flushed, 2);
        assert_eq!(tx.stats.max_batch_len, 4);
        assert_eq!(tx.stats.messages_batched, 5);
    }
}
