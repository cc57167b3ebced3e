//! The outbox: the flow entries that records put on switches, and the
//! per-switch batches every control message of one dispatch travels
//! in.

use super::*;

/// Control messages queued for one switch during the current event
/// dispatch; flushed as a single concatenated payload.
#[derive(Debug)]
pub(super) struct TxBatch {
    node: NodeId,
    buf: Vec<u8>,
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

    /// The flow-mod that installs (or replaces) this entry.
    pub(super) fn add(&self) -> OfMessage {
        OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: self.matcher,
            priority: self.priority,
            actions: self.actions.to_vec(),
            idle_timeout: self.idle,
            hard_timeout: None,
            cookie: self.cookie,
            notify_removed: self.notify_removed,
        }
    }
}

/// The flow-mod that deletes exactly the `(matcher, priority)` entry.
pub(super) fn delete_strict(matcher: Match, priority: u16) -> OfMessage {
    OfMessage::FlowMod {
        command: FlowModCommand::DeleteStrict,
        matcher,
        priority,
        actions: Vec::new(),
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

impl Controller {
    /// Queues `msg` for `node`; everything queued during one event
    /// dispatch goes out as a single per-switch payload (see
    /// [`Controller::flush`]).
    pub(super) fn send(&mut self, node: NodeId, msg: &OfMessage) {
        let xid = self.xid;
        self.xid = self.xid.wrapping_add(1);
        let bytes = codec::encode(msg, xid);
        let is_flow_mod = matches!(msg, OfMessage::FlowMod { .. });
        self.batching.messages_batched += 1;
        match self.txq.iter_mut().find(|b| b.node == node) {
            Some(b) => {
                b.buf.extend_from_slice(&bytes);
                b.msgs += 1;
                b.has_flow_mod |= is_flow_mod;
            }
            None => self.txq.push(TxBatch {
                node,
                buf: bytes,
                msgs: 1,
                has_flow_mod: is_flow_mod,
            }),
        }
    }

    /// Transmits everything queued by [`Controller::send`]: one
    /// control payload per switch, in first-use order. A batch that
    /// carries flow-mods is terminated with a barrier request, so the
    /// switch acknowledges only after every entry of the batch is
    /// applied — per-switch ordering is by in-order processing of the
    /// concatenated frames, and the barrier delimits the transaction.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.txq.is_empty() {
            return;
        }
        for mut batch in std::mem::take(&mut self.txq) {
            if batch.has_flow_mod {
                let xid = self.xid;
                self.xid = self.xid.wrapping_add(1);
                batch
                    .buf
                    .extend_from_slice(&codec::encode(&OfMessage::BarrierRequest, xid));
                batch.msgs += 1;
            }
            self.batching.batches_flushed += 1;
            self.batching.max_batch_len = self.batching.max_batch_len.max(batch.msgs);
            ctx.send_control(batch.node, batch.buf);
        }
    }

    pub(super) fn send_to_dpid(&mut self, dpid: u64, msg: &OfMessage) {
        if let Some(node) = self.topo.switch(dpid).map(|s| s.node) {
            self.send(node, msg);
        }
    }

    /// Queues `msg` for every registered switch, in dpid order.
    pub(super) fn send_to_all(&mut self, msg: &OfMessage) {
        let nodes: Vec<NodeId> = self.topo.switches().map(|s| s.node).collect();
        for node in nodes {
            self.send(node, msg);
        }
    }

    /// Queues the flow-mod installing each of `entries`. They borrow
    /// from a record the caller holds, never from `self`.
    pub(super) fn install<'a>(&mut self, entries: impl IntoIterator<Item = Entry<'a>>) {
        for e in entries {
            self.send_to_dpid(e.dpid, &e.add());
        }
    }

    /// Queues the strict delete of each of `entries` — the inverse of
    /// [`Controller::install`].
    pub(super) fn uninstall<'a>(&mut self, entries: impl IntoIterator<Item = Entry<'a>>) {
        for e in entries {
            self.send_to_dpid(e.dpid, &delete_strict(e.matcher, e.priority));
        }
    }

    pub(super) fn packet_out(
        &mut self,
        dpid: u64,
        in_port: Option<u32>,
        actions: Vec<Action>,
        pkt: &Packet,
    ) {
        let msg = OfMessage::PacketOut {
            in_port,
            actions,
            data: wire::serialize(pkt),
        };
        self.send_to_dpid(dpid, &msg);
    }

    /// Emits a controller-made frame out of one port of a switch.
    pub(super) fn emit(&mut self, dpid: u64, port: u32, pkt: &Packet) {
        let out = Action::Output(livesec_openflow::OutPort::Physical(port));
        self.packet_out(dpid, None, vec![out], pkt);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// Takes everything the handlers queued since the last flush, as
    /// `(switch node, message)` in send order per switch.
    pub(in crate::controller) fn drain(c: &mut Controller) -> Vec<(NodeId, OfMessage)> {
        std::mem::take(&mut c.txq)
            .into_iter()
            .flat_map(|b| {
                let msgs = codec::decode_all(&b.buf).expect("the controller's own encoding");
                msgs.into_iter().map(move |(m, _)| (b.node, m))
            })
            .collect()
    }
}
