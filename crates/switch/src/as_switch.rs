//! The Access-Switching layer switch: a software OpenFlow switch.

use livesec_net::{wire, FlowKey, HashSet, MacAddr, Packet, PacketBuilder};
use livesec_openflow::{
    apply_actions_owned, attestation_tag, codec, lookup_key, packet_tag, Action, ActionList,
    FlowEntry, FlowModCommand, FlowStats, ForwardingAttestation, Frame, OfMessage, OutPort,
    PacketInReason, PortStats, PortStatusReason, RemovedEntry, StatsBody, StatsRequestKind,
    SwitchChannel,
};
use livesec_sim::{Ctx, Node, NodeId, PortId, SimDuration};
use std::any::Any;
use std::borrow::Cow;

/// Timer token for the periodic housekeeping tick.
const TICK: u64 = 1;
/// The housekeeping period (flow expiry, port-status flush, liveness).
const TICK_PERIOD: SimDuration = SimDuration::from_millis(100);
/// Housekeeping ticks between keepalive echoes on the secure channel.
const ECHO_EVERY_TICKS: u64 = 10;
/// Housekeeping ticks of controller silence before the switch declares
/// its controller unreachable and degrades fail-secure (3 s — three
/// missed keepalive rounds).
const CTRL_TIMEOUT_TICKS: u64 = 30;
/// First reconnect-hello retry interval while degraded, in ticks.
const BACKOFF_START_TICKS: u64 = 5;
/// Reconnect backoff cap, in ticks (8 s).
const BACKOFF_CAP_TICKS: u64 = 80;

/// The port a compromised switch sends `port`'s traffic to instead:
/// rotated by `skew` within `1..=n_ports`. The wire carries any port
/// below 0xff00, 0 included, so the rotation must not subtract first.
fn skewed_port(port: u32, skew: u32, n_ports: u32) -> u32 {
    (port + skew - 1) % n_ports + 1
}

/// A software OpenFlow switch of the Access-Switching layer.
///
/// Models Open vSwitch as deployed in the paper (and, behind slower
/// links, the Pantou OF Wi-Fi APs): a flow table driven entirely by the
/// controller over a secure channel, with packet-ins for table misses.
///
/// While its controller is unreachable the switch fails secure (the
/// OpenFlow "fail secure mode"): installed flows keep forwarding and
/// table misses are dropped, so nothing traverses the network that the
/// controller has not explicitly admitted.
///
/// Port conventions follow the deployment builder in `livesec`:
/// port 1 is the uplink into the Legacy-Switching layer, ports 2.. are
/// Network-Periphery access ports (hosts, service elements).
pub struct AsSwitch {
    channel: SwitchChannel,
    table: livesec_openflow::FlowTable,
    controller: Option<NodeId>,
    n_ports: u32,
    down_ports: HashSet<u32>,
    pending_status: Vec<(PortStatusReason, u32)>,
    ticks: u64,
    last_ctrl_tick: u64,
    degraded: bool,
    reconnect_backoff: u64,
    next_hello_tick: u64,
    /// The matched entry's action list, copied out for the length of
    /// one forward: the entry borrows the table, emitting borrows the
    /// whole switch. Also where a received flow-mod's or packet-out's
    /// actions are read. Reused, so neither a table hit nor a
    /// packet-out allocates a list; an `Add` copies it into its entry's
    /// `ActionList`, which allocates only for a list too long to hold
    /// inline.
    action_buf: Vec<Action>,
    /// Forwarding-attestation sampling divisor: 0 disables attestation
    /// entirely; `n` samples packets whose stitching tag is divisible
    /// by `n` (1 = attest everything).
    attest_every: u64,
    /// Silent-misforward compromise: when set, table hits forward out
    /// a skewed port while the table itself stays pristine.
    misforward: Option<u32>,
    /// Frames forwarded by table hits (not via controller).
    pub fast_path_frames: u64,
    /// Packet-ins sent.
    pub packet_ins: u64,
    /// Times the switch declared its controller unreachable.
    pub degraded_entries: u64,
    /// Reconnect hellos sent while degraded (capped exponential backoff).
    pub reconnect_hellos: u64,
    /// Table misses dropped in fail-secure degraded mode.
    pub fail_secure_drops: u64,
    /// Crash-restart cycles survived (fault injection).
    pub crash_restarts: u64,
    /// Forwarding attestations sampled into the controller.
    pub attestations_sent: u64,
    /// Flow entries silently tampered with (fault injection).
    pub rules_tampered: u64,
    /// Frames deliberately forwarded out a wrong port (fault injection).
    pub misforwarded_frames: u64,
    /// Forged frames originated by this switch (fault injection).
    pub injected_packets: u64,
}

impl std::fmt::Debug for AsSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsSwitch")
            .field("dpid", &self.channel.datapath_id())
            .field("n_ports", &self.n_ports)
            .field("flow_entries", &self.table.len())
            .finish_non_exhaustive()
    }
}

impl AsSwitch {
    /// Creates a switch with the given datapath id and port count.
    pub fn new(datapath_id: u64, n_ports: u32) -> Self {
        AsSwitch {
            channel: SwitchChannel::new(datapath_id, n_ports),
            table: livesec_openflow::FlowTable::new(),
            controller: None,
            n_ports,
            down_ports: HashSet::default(),
            pending_status: Vec::new(),
            ticks: 0,
            last_ctrl_tick: 0,
            degraded: false,
            reconnect_backoff: BACKOFF_START_TICKS,
            next_hello_tick: 0,
            action_buf: Vec::new(),
            attest_every: 0,
            misforward: None,
            fast_path_frames: 0,
            packet_ins: 0,
            degraded_entries: 0,
            reconnect_hellos: 0,
            fail_secure_drops: 0,
            crash_restarts: 0,
            attestations_sent: 0,
            rules_tampered: 0,
            misforwarded_frames: 0,
            injected_packets: 0,
        }
    }

    /// Enables forwarding attestation: every table-hit forward whose
    /// packet tag is a multiple of `every` is attested to the
    /// controller. The
    /// tag covers only the 5-tuple and the frame length
    /// ([`livesec_openflow::packet_tag`]), so this samples (flow, frame
    /// length) classes, about one in `every`, and attests every packet
    /// of a sampled class — not one packet in `every`. 0 (the default)
    /// disables attestation — existing deployments are byte-identical.
    pub fn set_attest_every(&mut self, every: u64) {
        self.attest_every = every;
    }

    /// Points the secure channel at the controller node.
    pub fn with_controller(mut self, controller: NodeId) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Whether the switch currently considers its controller
    /// unreachable and is dropping table misses.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The switch's datapath id.
    pub fn datapath_id(&self) -> u64 {
        self.channel.datapath_id()
    }

    /// The flow table (for inspection in tests and monitors).
    pub fn table(&self) -> &livesec_openflow::FlowTable {
        &self.table
    }

    /// Number of physical ports (1-based numbering).
    pub fn n_ports(&self) -> u32 {
        self.n_ports
    }

    /// A point-in-time copy of the flow table in install order — the
    /// per-switch half of a dataplane verifier's snapshot, taken by
    /// value so auditing never borrows the live switch.
    pub fn table_snapshot(&self) -> Vec<livesec_openflow::FlowEntry> {
        self.table
            .entries_in_install_order()
            .into_iter()
            .cloned()
            .collect()
    }

    /// Keepalive echo replies received from the controller.
    pub fn echo_replies(&self) -> u64 {
        self.channel.echo_replies_seen
    }

    /// Administratively fails a port: frames in/out are dropped and a
    /// port-status Delete is reported on the next tick.
    pub fn fail_port(&mut self, port: u32) {
        if self.down_ports.insert(port) {
            self.pending_status.push((PortStatusReason::Delete, port));
        }
    }

    /// Brings a failed port back; reported as a port-status Add.
    pub fn recover_port(&mut self, port: u32) {
        if self.down_ports.remove(&port) {
            self.pending_status.push((PortStatusReason::Add, port));
        }
    }

    fn send_to_controller(&mut self, ctx: &mut Ctx<'_>, msg: &OfMessage) {
        if let Some(c) = self.controller {
            let mut buf = ctx.control_buf();
            self.channel.send(msg, &mut buf);
            ctx.send_control(c, buf);
        }
    }

    /// Samples a forwarding attestation for one table-hit forward.
    ///
    /// The sampling decision hashes only rewrite-invariant header
    /// fields, so every hop of the same packet makes the *same*
    /// decision — sampled packets are attested along their whole path
    /// and the detector can reconstruct complete chains.
    fn maybe_attest(
        &mut self,
        ctx: &mut Ctx<'_>,
        in_port: u32,
        out_port: u32,
        cookie: u64,
        key: &FlowKey,
        wire_len: u64,
    ) {
        if self.attest_every == 0 {
            return;
        }
        let pkt_tag = packet_tag(key, wire_len);
        if !pkt_tag.is_multiple_of(self.attest_every) {
            return;
        }
        self.attestations_sent += 1;
        let dpid = self.channel.datapath_id();
        let att = ForwardingAttestation {
            dpid,
            in_port,
            out_port,
            cookie,
            flow: *key,
            pkt_tag,
            tag: attestation_tag(dpid, in_port, out_port, cookie),
        };
        self.send_to_controller(ctx, &OfMessage::Attestation(att));
    }

    fn packet_in(&mut self, ctx: &mut Ctx<'_>, in_port: u32, reason: PacketInReason, pkt: &Packet) {
        self.packet_ins += 1;
        if let Some(c) = self.controller {
            let mut buf = ctx.control_buf();
            self.channel.packet_in(in_port, reason, pkt, &mut buf);
            ctx.send_control(c, buf);
        }
    }

    /// Sends `pkt` to `dest`. A lent packet (an `Output` with more of
    /// its action list to come) is copied only where a port keeps it.
    fn emit(
        &mut self,
        ctx: &mut Ctx<'_>,
        dest: OutPort,
        in_port: Option<u32>,
        pkt: Cow<'_, Packet>,
    ) {
        match dest {
            OutPort::Physical(p) => {
                if !self.down_ports.contains(&p) {
                    ctx.send(PortId(p), pkt.into_owned());
                }
            }
            OutPort::InPort => {
                if let Some(p) = in_port {
                    if !self.down_ports.contains(&p) {
                        ctx.send(PortId(p), pkt.into_owned());
                    }
                }
            }
            OutPort::Flood => {
                for p in 1..=self.n_ports {
                    if Some(p) != in_port && !self.down_ports.contains(&p) {
                        ctx.send(PortId(p), pkt.as_ref().clone());
                    }
                }
            }
            OutPort::Controller => {
                self.packet_in(ctx, in_port.unwrap_or(0), PacketInReason::Action, &pkt);
            }
        }
    }

    /// Tells the controller about each removed entry that asked to be
    /// reported.
    fn report_removed(&mut self, ctx: &mut Ctx<'_>, removed: Vec<RemovedEntry>) {
        for r in removed {
            if r.entry.notify_removed {
                let msg = OfMessage::FlowRemoved {
                    matcher: r.entry.matcher,
                    cookie: r.entry.cookie,
                    priority: r.entry.priority,
                    reason: r.reason,
                    packet_count: r.entry.packet_count,
                    byte_count: r.entry.byte_count,
                };
                self.send_to_controller(ctx, &msg);
            }
        }
    }

    fn answer_stats(&mut self, ctx: &mut Ctx<'_>, kind: StatsRequestKind) {
        let now = ctx.now().as_nanos();
        let body = match kind {
            StatsRequestKind::Flow(matcher) => {
                // Written straight from the table: no list is built.
                let stats = self
                    .table
                    .iter()
                    .filter(|e| matcher.subsumes(&e.matcher))
                    .map(|e| FlowStats {
                        matcher: e.matcher,
                        priority: e.priority,
                        cookie: e.cookie,
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                        duration: now.saturating_sub(e.created_at),
                    });
                if let Some(c) = self.controller {
                    let mut buf = ctx.control_buf();
                    self.channel.flow_stats(stats, &mut buf);
                    ctx.send_control(c, buf);
                }
                return;
            }
            StatsRequestKind::Port(which) => {
                let ports: Vec<u32> = match which {
                    Some(p) => vec![p],
                    None => (1..=self.n_ports).collect(),
                };
                StatsBody::Port(
                    ports
                        .into_iter()
                        .map(|p| {
                            let c = ctx.port_counters(PortId(p));
                            PortStats {
                                port_no: p,
                                rx_packets: c.rx_frames,
                                tx_packets: c.tx_frames,
                                rx_bytes: c.rx_bytes,
                                tx_bytes: c.tx_bytes,
                                drops: c.drops,
                            }
                        })
                        .collect(),
                )
            }
            StatsRequestKind::Description => StatsBody::Description {
                manufacturer: "LiveSec reproduction".into(),
                hardware: "simulated x86 server, 4x GbE".into(),
                software: "ovs-1.1.0-model".into(),
            },
        };
        self.send_to_controller(ctx, &OfMessage::StatsReply(body));
    }
}

impl Node for AsSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send_to_controller(ctx, &OfMessage::Hello);
        ctx.set_timer(TICK_PERIOD, TICK);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        let in_port = port.number();
        if self.down_ports.contains(&in_port) {
            return;
        }
        // LLDP and unknown EtherTypes always miss. Installed flows keep
        // forwarding while the controller is gone; misses are dropped.
        let now = ctx.now().as_nanos();
        let bytes = pkt.wire_len() as u64;
        let hit = lookup_key(&pkt).and_then(|key| {
            self.table
                .lookup_counting(in_port, &key, now, bytes)
                .map(|entry| (key, entry))
        });
        let Some((key, entry)) = hit else {
            if self.degraded {
                self.fail_secure_drops += 1;
            } else {
                self.packet_in(ctx, in_port, PacketInReason::NoMatch, &pkt);
            }
            return;
        };
        let cookie = entry.cookie;
        let mut actions = std::mem::take(&mut self.action_buf);
        actions.clear();
        actions.extend_from_slice(&entry.actions);
        self.fast_path_frames += 1;
        apply_actions_owned(pkt, &actions, |dest, out_pkt| {
            // A compromised switch skews physical outputs while its
            // table stays pristine; the attestation records the port
            // the packet *actually* left on (the attestation pipeline
            // models trusted egress firmware below the compromise).
            let dest = match (dest, self.misforward) {
                (OutPort::Physical(p), Some(skew)) => {
                    self.misforwarded_frames += 1;
                    OutPort::Physical(skewed_port(p, skew, self.n_ports))
                }
                (d, _) => d,
            };
            if let OutPort::Physical(out) = dest {
                self.maybe_attest(ctx, in_port, out, cookie, &key, bytes);
            }
            self.emit(ctx, dest, Some(in_port), out_pkt);
        });
        self.action_buf = actions;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TICK {
            return;
        }
        self.ticks += 1;
        // Liveness: too long without a word from the controller means
        // the secure channel is gone; fail secure.
        if self.controller.is_some()
            && !self.degraded
            && self.ticks.saturating_sub(self.last_ctrl_tick) > CTRL_TIMEOUT_TICKS
        {
            self.degraded = true;
            self.degraded_entries += 1;
            self.reconnect_backoff = BACKOFF_START_TICKS;
            self.next_hello_tick = self.ticks; // first retry right away
        }
        if self.degraded {
            // Reconnect with capped exponential backoff: re-offer the
            // hello until the controller answers anything at all.
            if self.ticks >= self.next_hello_tick {
                self.send_to_controller(ctx, &OfMessage::Hello);
                self.reconnect_hellos += 1;
                self.next_hello_tick = self.ticks + self.reconnect_backoff;
                self.reconnect_backoff = (self.reconnect_backoff * 2).min(BACKOFF_CAP_TICKS);
            }
        } else if self.ticks.is_multiple_of(ECHO_EVERY_TICKS) {
            // Keepalive: probe the controller periodically; replies are
            // counted by the channel (see `echo_replies_seen`).
            self.send_to_controller(ctx, &OfMessage::EchoRequest(self.ticks));
        }
        // Flush pending port-status notifications.
        let pending = std::mem::take(&mut self.pending_status);
        for (reason, port_no) in pending {
            self.send_to_controller(ctx, &OfMessage::PortStatus { reason, port_no });
        }
        // Expire flows.
        let removed = self.table.expire(ctx.now().as_nanos());
        self.report_removed(ctx, removed);
        ctx.set_timer(TICK_PERIOD, TICK);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        // Any arrival proves the secure channel is physically alive,
        // even if the payload turns out to be garbage: refresh liveness
        // and leave degraded mode before decoding.
        self.last_ctrl_tick = self.ticks;
        if self.degraded {
            self.degraded = false;
            self.reconnect_backoff = BACKOFF_START_TICKS;
        }
        // The controller may batch several messages into one payload
        // (flow-mod batches end with a barrier). The channel checks
        // the whole batch before it answers any of it, and every entry
        // is applied in this dispatch, before the barrier reply can
        // arrive.
        let Ok(mut batch) = self.channel.receive_all(bytes, &mut |reply, xid| {
            let mut buf = ctx.control_buf();
            codec::encode_into(reply, xid, &mut buf);
            ctx.send_control(peer, buf);
        }) else {
            return; // malformed control traffic is dropped
        };
        let mut actions = std::mem::take(&mut self.action_buf);
        while let Some(frame) = batch.next_frame(&mut actions) {
            self.apply(ctx, frame, &actions);
        }
        self.action_buf = actions;
    }

    fn on_crash_restart(&mut self, ctx: &mut Ctx<'_>) {
        // A power cycle: the flow table and the secure-channel session
        // are volatile and vanish; port hardware state (down ports) and
        // cumulative observability counters survive on the struct.
        self.crash_restarts += 1;
        self.table = livesec_openflow::FlowTable::new();
        self.channel.reset();
        self.pending_status.clear();
        self.misforward = None; // the compromise is volatile
        self.degraded = false;
        self.reconnect_backoff = BACKOFF_START_TICKS;
        self.last_ctrl_tick = self.ticks; // boot grace period
        self.send_to_controller(ctx, &OfMessage::Hello);
    }

    fn on_rule_tamper(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        // Pick a victim entry that actually forwards somewhere, prefer
        // a controller-tagged (cookie != 0) one — those are the
        // entries whose integrity the path proof swears to. The
        // replacement keeps match/priority/timeouts but skews every
        // physical output and zeroes the cookie; no FlowRemoved is
        // sent, so the control plane sees nothing.
        let now = ctx.now().as_nanos();
        let forwards = |e: &&FlowEntry| {
            e.actions
                .iter()
                .any(|a| matches!(a, Action::Output(OutPort::Physical(_))))
        };
        let all = self.table.entries_in_install_order();
        let tagged: Vec<&FlowEntry> = all
            .iter()
            .copied()
            .filter(|e| e.cookie != 0)
            .filter(forwards)
            .collect();
        let pool: Vec<&FlowEntry> = if tagged.is_empty() {
            all.iter().copied().filter(forwards).collect()
        } else {
            tagged
        };
        let Some(victim) = salt
            .checked_rem(pool.len() as u64)
            .and_then(|i| pool.get(i as usize))
        else {
            return; // nothing to tamper with
        };
        let matcher = victim.matcher;
        let priority = victim.priority;
        let skew = 1 + (salt >> 32) as u32 % (self.n_ports - 1).max(1);
        let actions: ActionList = victim
            .actions
            .iter()
            .map(|a| match *a {
                Action::Output(OutPort::Physical(p)) => {
                    Action::Output(OutPort::Physical(skewed_port(p, skew, self.n_ports)))
                }
                other => other,
            })
            .collect();
        let idle = victim.idle_timeout;
        let hard = victim.hard_timeout;
        self.table.remove(&matcher, true, Some(priority));
        let mut entry = FlowEntry::new(matcher, actions, priority);
        entry.idle_timeout = idle;
        entry.hard_timeout = hard;
        self.table.insert_at(entry, now);
        self.rules_tampered += 1;
    }

    fn on_misforward(&mut self, _ctx: &mut Ctx<'_>, salt: u64) {
        // Persistent until a crash-restart: physical outputs are skewed
        // by a salt-derived constant in 1..n_ports, guaranteeing a
        // wrong (but existing) egress port.
        let skew = 1 + (salt % u64::from((self.n_ports - 1).max(1))) as u32;
        self.misforward = Some(skew);
    }

    fn on_packet_inject(&mut self, ctx: &mut Ctx<'_>, salt: u64) {
        // Originate a frame the controller never admitted: forged MACs
        // and documentation-range IPs derived from the salt, pushed out
        // the uplink. The (trusted) attestation pipeline still reports
        // the emission, which is exactly what gives it away.
        self.injected_packets += 1;
        let src_mac = MacAddr::from_u64(0x00ba_d000_0000 | (salt & 0xffff));
        let dst_mac = MacAddr::from_u64(0x00ba_d100_0000 | ((salt >> 16) & 0xffff));
        let src_ip = std::net::Ipv4Addr::new(203, 0, 113, (salt % 254) as u8 + 1);
        let dst_ip = std::net::Ipv4Addr::new(198, 51, 100, ((salt >> 8) % 254) as u8 + 1);
        let pkt = PacketBuilder::udp(src_mac, dst_mac)
            .ips(src_ip, dst_ip)
            .ports(40_000 + (salt % 1000) as u16, 4444)
            .payload_len(64)
            .build();
        let out_port = 1; // the uplink into the legacy fabric
        if let Some(key) = lookup_key(&pkt) {
            self.maybe_attest(ctx, 0, out_port, 0, &key, pkt.wire_len() as u64);
        }
        self.emit(ctx, OutPort::Physical(out_port), None, Cow::Owned(pkt));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl AsSwitch {
    /// Applies one controller message that the secure channel surfaced
    /// (everything the channel doesn't answer by itself), whose actions
    /// are `actions`.
    fn apply(&mut self, ctx: &mut Ctx<'_>, frame: Frame<'_>, actions: &[Action]) {
        match frame {
            Frame::FlowMod {
                command,
                matcher,
                priority,
                idle_timeout,
                hard_timeout,
                cookie,
                notify_removed,
            } => match command {
                FlowModCommand::Add => {
                    let mut entry = FlowEntry::new(matcher, actions, priority).with_cookie(cookie);
                    entry.idle_timeout = idle_timeout;
                    entry.hard_timeout = hard_timeout;
                    entry.notify_removed = notify_removed;
                    self.table.insert_at(entry, ctx.now().as_nanos());
                }
                FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                    let strict = command == FlowModCommand::ModifyStrict;
                    self.table.modify_actions(&matcher, strict, actions);
                }
                FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                    let strict = command == FlowModCommand::DeleteStrict;
                    let removed = self
                        .table
                        .remove(&matcher, strict, strict.then_some(priority));
                    self.report_removed(ctx, removed);
                }
            },
            Frame::PacketOut { in_port, data } => {
                if let Ok(pkt) = wire::parse(data) {
                    apply_actions_owned(pkt, actions, |dest, out_pkt| {
                        self.emit(ctx, dest, in_port, out_pkt)
                    });
                }
            }
            Frame::Other(OfMessage::StatsRequest(kind)) => self.answer_stats(ctx, kind),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::{FlowKey, MacAddr, PacketBuilder};
    use livesec_openflow::{codec, Action, Match};
    use livesec_sim::{LinkSpec, World};

    /// A controller stub that records packet-ins and can be pre-loaded
    /// with messages to push to the switch on start.
    struct StubController {
        switch: Option<NodeId>,
        outbox: Vec<OfMessage>,
        /// Payloads pushed verbatim on start, after `outbox`.
        payloads: Vec<Vec<u8>>,
        /// Messages pushed only after `late_at` elapses (a controller
        /// that "comes back" mid-run).
        late_outbox: Vec<OfMessage>,
        late_at: Option<SimDuration>,
        packet_ins: Vec<(u32, Vec<u8>)>,
        flow_removed: Vec<OfMessage>,
        port_status: Vec<OfMessage>,
        attestations: Vec<ForwardingAttestation>,
        barrier_replies: usize,
    }

    impl StubController {
        fn new() -> Self {
            StubController {
                switch: None,
                outbox: Vec::new(),
                payloads: Vec::new(),
                late_outbox: Vec::new(),
                late_at: None,
                packet_ins: Vec::new(),
                flow_removed: Vec::new(),
                port_status: Vec::new(),
                attestations: Vec::new(),
                barrier_replies: 0,
            }
        }
    }

    impl Node for StubController {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(sw) = self.switch {
                for (i, msg) in self.outbox.iter().enumerate() {
                    ctx.send_control(sw, codec::encode(msg, i as u32));
                }
                for payload in &self.payloads {
                    ctx.send_control(sw, payload.clone());
                }
            }
            if let Some(at) = self.late_at {
                ctx.set_timer(at, 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(sw) = self.switch {
                for (i, msg) in self.late_outbox.drain(..).enumerate() {
                    ctx.send_control(sw, codec::encode(&msg, 1000 + i as u32));
                }
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn on_control(&mut self, _ctx: &mut Ctx<'_>, _peer: NodeId, bytes: &[u8]) {
            if let Ok((msg, _)) = codec::decode(bytes) {
                match msg {
                    OfMessage::PacketIn { in_port, data, .. } => {
                        self.packet_ins.push((in_port, data));
                    }
                    OfMessage::FlowRemoved { .. } => self.flow_removed.push(msg),
                    OfMessage::PortStatus { .. } => self.port_status.push(msg),
                    OfMessage::Attestation(a) => self.attestations.push(a),
                    OfMessage::BarrierReply => self.barrier_replies += 1,
                    _ => {}
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Records everything it receives.
    struct Sink {
        got: Vec<Packet>,
    }

    impl Node for Sink {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            self.got.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one packet at start.
    struct OneShot {
        pkt: Option<Packet>,
    }

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Wait out the control-channel latency so flow-mods pushed
            // at start are installed before the frame arrives.
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(pkt) = self.pkt.take() {
                ctx.send(PortId(1), pkt);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn test_packet() -> Packet {
        PacketBuilder::udp(MacAddr::from_u64(1), MacAddr::from_u64(2))
            .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
            .ports(1000, 2000)
            .payload_len(100)
            .build()
    }

    fn run(outbox: Vec<OfMessage>) -> (World, NodeId, NodeId, NodeId, NodeId) {
        // host(OneShot) -- p2 switch p3 -- sink; controller via channel.
        let mut world = World::new(1);
        let ctrl = world.add_node(StubController::new());
        let sw = world.add_node(AsSwitch::new(7, 4).with_controller(ctrl));
        let src = world.add_node(OneShot {
            pkt: Some(test_packet()),
        });
        let dst = world.add_node(Sink { got: vec![] });
        world.connect(src, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.connect(dst, PortId(1), sw, PortId(3), LinkSpec::gigabit());
        world.node_mut::<StubController>(ctrl).switch = Some(sw);
        world.node_mut::<StubController>(ctrl).outbox = outbox;
        (world, ctrl, sw, src, dst)
    }

    #[test]
    fn table_miss_goes_to_controller() {
        let (mut world, ctrl, sw, _src, dst) = run(vec![]);
        world.run_for(SimDuration::from_millis(10));
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.packet_ins.len(), 1);
        assert_eq!(c.packet_ins[0].0, 2, "arrived on port 2");
        // The frame bytes round-trip through the wire codec.
        let pkt = wire::parse(&c.packet_ins[0].1).unwrap();
        assert_eq!(FlowKey::of(&pkt), FlowKey::of(&test_packet()));
        assert!(world.node::<Sink>(dst).got.is_empty(), "not forwarded");
        assert_eq!(world.node::<AsSwitch>(sw).packet_ins, 1);
    }

    #[test]
    fn installed_flow_forwards_without_controller() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        )]);
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<Sink>(dst).got.len(), 1);
        assert!(world.node::<StubController>(ctrl).packet_ins.is_empty());
        assert_eq!(world.node::<AsSwitch>(sw).fast_path_frames, 1);
        // Counters on the entry reflect the hit.
        let e = world
            .node::<AsSwitch>(sw)
            .table()
            .peek(2, &key)
            .expect("entry present");
        assert_eq!(e.packet_count, 1);
    }

    #[test]
    fn a_batch_with_one_corrupt_frame_is_dropped_whole() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let flow_mod = |priority: u16| {
            let out = vec![Action::Output(OutPort::Physical(3))];
            let msg = OfMessage::add_flow(Match::exact(2, &key), out, priority);
            codec::encode(&msg, u32::from(priority))
        };
        let mut corrupt = codec::encode(&OfMessage::add_flow(Match::any(), vec![], 5), 2);
        corrupt[0] = 99; // a version no peer speaks; the length still frames it
        let barrier = codec::encode(&OfMessage::BarrierRequest, 4);
        // The same batch without the corrupt frame is the control: both
        // entries land and the barrier is acknowledged.
        for (middle, entries, barrier_replies) in [(corrupt, 0, 0), (vec![], 2, 1)] {
            let (mut world, ctrl, sw, _src, _dst) = run(vec![]);
            world.node_mut::<StubController>(ctrl).payloads =
                vec![[flow_mod(10), middle, flow_mod(20), barrier.clone()].concat()];
            world.run_for(SimDuration::from_millis(10));
            assert_eq!(world.node::<AsSwitch>(sw).table().len(), entries);
            let c = world.node::<StubController>(ctrl);
            assert_eq!(c.barrier_replies, barrier_replies);
        }
    }

    #[test]
    fn a_batch_whose_last_frame_is_corrupt_is_dropped_whole() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let out = vec![Action::Output(OutPort::Physical(3))];
        let frames = [
            OfMessage::add_flow(Match::exact(2, &key), out.clone(), 10),
            OfMessage::PacketOut {
                in_port: None,
                actions: out.into(),
                data: wire::serialize(&test_packet()),
            },
            OfMessage::BarrierRequest,
        ];
        let good: Vec<u8> = (1..)
            .zip(&frames)
            .flat_map(|(xid, m)| codec::encode(m, xid))
            .collect();
        let mut corrupt = codec::encode(&OfMessage::EchoRequest(9), 4);
        // A type no peer sends; the length still frames it.
        corrupt[1] = 200;
        // The same batch without the corrupt tail is the control: the
        // entry lands, the barrier is answered, and the sink gets the
        // released packet and then the host's, forwarded by the entry.
        let cases = [(corrupt, 0, 0, 0), (vec![], 1, 1, 2)];
        for (tail, entries, barrier_replies, delivered) in cases {
            let (mut world, ctrl, sw, _src, dst) = run(vec![]);
            world.node_mut::<StubController>(ctrl).payloads = vec![[good.clone(), tail].concat()];
            world.run_for(SimDuration::from_millis(10));
            assert_eq!(world.node::<AsSwitch>(sw).table().len(), entries);
            assert_eq!(
                world.node::<StubController>(ctrl).barrier_replies,
                barrier_replies
            );
            assert_eq!(world.node::<Sink>(dst).got.len(), delivered);
        }
    }

    #[test]
    fn drop_rule_blackholes() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, _sw, _src, dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![], // empty action list = drop
            10,
        )]);
        world.run_for(SimDuration::from_millis(10));
        assert!(world.node::<Sink>(dst).got.is_empty());
        assert!(world.node::<StubController>(ctrl).packet_ins.is_empty());
    }

    #[test]
    fn rewrite_action_applies() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let se_mac = MacAddr::from_u64(0xfefe);
        let (mut world, _ctrl, _sw, _src, dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![
                Action::SetDlDst(se_mac),
                Action::Output(OutPort::Physical(3)),
            ],
            10,
        )]);
        world.run_for(SimDuration::from_millis(10));
        let got = &world.node::<Sink>(dst).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].eth.dst, se_mac);
    }

    #[test]
    fn flood_reaches_all_but_ingress() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, _ctrl, sw, src, dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Flood)],
            10,
        )]);
        // Attach one more sink on port 4.
        let extra = world.add_node(Sink { got: vec![] });
        world.connect(extra, PortId(1), sw, PortId(4), LinkSpec::gigabit());
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<Sink>(dst).got.len(), 1);
        assert_eq!(world.node::<Sink>(extra).got.len(), 1);
        // Ingress node got nothing back (OneShot has no counters; check
        // via port counters: switch port 2 transmitted 0 frames).
        assert_eq!(
            world.kernel().port_counters(sw, PortId(2)).tx_frames,
            0,
            "no reflection to ingress"
        );
        let _ = src;
    }

    #[test]
    fn idle_timeout_reports_flow_removed() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let mut fm = OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        );
        if let OfMessage::FlowMod {
            idle_timeout,
            notify_removed,
            ..
        } = &mut fm
        {
            *idle_timeout = Some(SimDuration::from_millis(50).as_nanos());
            *notify_removed = true;
        }
        let (mut world, ctrl, sw, _src, _dst) = run(vec![fm]);
        world.run_for(SimDuration::from_millis(500));
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.flow_removed.len(), 1);
        assert!(world.node::<AsSwitch>(sw).table().is_empty());
    }

    #[test]
    fn max_timeout_off_the_wire_never_expires_and_never_panics() {
        // Regression: the 8-byte timeout fields can carry u64::MAX (a
        // hostile peer, or one corrupted control frame); the expiry
        // deadline overflowed and panicked the switch on its next tick.
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) = run(vec![OfMessage::FlowMod {
            command: FlowModCommand::Add,
            matcher: Match::exact(2, &key),
            priority: 10,
            actions: vec![Action::Output(OutPort::Physical(3))].into(),
            idle_timeout: Some(u64::MAX),
            hard_timeout: Some(u64::MAX),
            cookie: 0,
            notify_removed: true,
        }]);
        world.run_for(SimDuration::from_millis(500));
        assert_eq!(world.node::<Sink>(dst).got.len(), 1, "entry forwards");
        assert_eq!(world.node::<AsSwitch>(sw).table().len(), 1, "never due");
        assert!(world.node::<StubController>(ctrl).flow_removed.is_empty());
    }

    #[test]
    fn port_failure_reports_status_and_blocks_traffic() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        )]);
        world.node_mut::<AsSwitch>(sw).fail_port(3);
        world.run_for(SimDuration::from_millis(300));
        assert!(world.node::<Sink>(dst).got.is_empty(), "egress is down");
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.port_status.len(), 1);
        match &c.port_status[0] {
            OfMessage::PortStatus { reason, port_no } => {
                assert_eq!(*reason, PortStatusReason::Delete);
                assert_eq!(*port_no, 3);
            }
            _ => panic!("expected port status"),
        }
    }

    #[test]
    fn packet_out_emits() {
        let (mut world, _ctrl, _sw, _src, dst) = run(vec![OfMessage::PacketOut {
            in_port: None,
            actions: vec![Action::Output(OutPort::Physical(3))].into(),
            data: wire::serialize(&test_packet()),
        }]);
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<Sink>(dst).got.len(), 1);
    }

    /// Sends one packet after a configurable delay (to reach the
    /// switch once it has already entered degraded mode).
    struct DelayedShot {
        pkt: Option<Packet>,
        delay: SimDuration,
    }

    impl Node for DelayedShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.delay, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(pkt) = self.pkt.take() {
                ctx.send(PortId(1), pkt);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Wires a switch with a mute peer node as its "controller" (every
    /// control send is simply never answered), one delayed sender on
    /// port 2 and one sink on port 3. The switch degrades at tick 31
    /// (3.1 s): more than 30 ticks without a word from the controller.
    fn run_degraded(send_at: SimDuration) -> (World, NodeId, NodeId, NodeId, NodeId) {
        let mut world = World::new(1);
        let ctrl = world.add_node(StubController::new());
        let sw = world.add_node(AsSwitch::new(7, 4).with_controller(ctrl));
        let src = world.add_node(DelayedShot {
            pkt: Some(test_packet()),
            delay: send_at,
        });
        let dst = world.add_node(Sink { got: vec![] });
        world.connect(src, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.connect(dst, PortId(1), sw, PortId(3), LinkSpec::gigabit());
        (world, ctrl, sw, src, dst)
    }

    #[test]
    fn silent_controller_enters_degraded_mode() {
        let (mut world, _ctrl, sw, _src, _dst) = run_degraded(SimDuration::from_secs(9));
        world.run_for(SimDuration::from_millis(3050));
        assert!(!world.node::<AsSwitch>(sw).is_degraded(), "within timeout");
        world.run_for(SimDuration::from_millis(200));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_degraded(), "timeout exceeded");
        assert_eq!(s.degraded_entries, 1);
    }

    #[test]
    fn fail_secure_drops_misses_but_keeps_installed_flows() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) = run_degraded(SimDuration::from_secs(4));
        // Pre-install a flow for a *different* session; it must keep
        // forwarding even in degraded mode.
        let mut other = key;
        other.tp_src = 4242;
        world.node_mut::<StubController>(ctrl).switch = Some(sw);
        world.node_mut::<StubController>(ctrl).outbox = vec![OfMessage::add_flow(
            Match::exact(2, &other),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        )];
        world.run_for(SimDuration::from_secs(5));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_degraded());
        assert_eq!(s.fail_secure_drops, 1, "the miss was dropped");
        assert_eq!(s.table().len(), 1, "installed flow survives");
        assert!(world.node::<Sink>(dst).got.is_empty());
        // The miss was NOT sent upstream: the only packet-ins a secure
        // switch emits while degraded would be pointless.
        assert!(world.node::<StubController>(ctrl).packet_ins.is_empty());
    }

    #[test]
    fn reconnect_hellos_back_off_exponentially() {
        let (mut world, _ctrl, sw, _src, _dst) = run_degraded(SimDuration::from_secs(60));
        // Degraded at tick 31; hellos at ticks 31, 36, 46, 66, 106,
        // then every 80 (the cap). 40 s = 400 ticks -> 5 + 3 = 8 hellos.
        world.run_for(SimDuration::from_secs(40));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_degraded());
        assert_eq!(
            s.reconnect_hellos, 8,
            "capped exponential backoff, not per-tick spam"
        );
    }

    #[test]
    fn control_arrival_exits_degraded_mode() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) = run_degraded(SimDuration::from_secs(5));
        // The controller "comes back" after 4.5 s with a flow-mod for
        // the delayed packet.
        {
            let c = world.node_mut::<StubController>(ctrl);
            c.switch = Some(sw);
            c.late_at = Some(SimDuration::from_millis(4500));
            c.late_outbox = vec![OfMessage::add_flow(
                Match::exact(2, &key),
                vec![Action::Output(OutPort::Physical(3))],
                10,
            )];
        }
        world.run_for(SimDuration::from_secs(4));
        assert!(world.node::<AsSwitch>(sw).is_degraded());
        // Shortly after the late flow-mod lands the switch is healthy
        // again.
        world.run_for(SimDuration::from_millis(600));
        assert!(
            !world.node::<AsSwitch>(sw).is_degraded(),
            "any control arrival recovers"
        );
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(
            world.node::<Sink>(dst).got.len(),
            1,
            "the installed flow forwarded the delayed packet"
        );
    }

    #[test]
    fn crash_restart_wipes_table_and_rehellos() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, _dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        )]);
        world
            .install_fault_plan(&livesec_sim::FaultPlan::new(1).at(
                livesec_sim::SimTime::from_nanos(5_000_000),
                livesec_sim::FaultKind::CrashRestart { node: sw },
            ))
            .expect("valid fault plan");
        world.run_for(SimDuration::from_millis(10));
        let s = world.node::<AsSwitch>(sw);
        assert_eq!(s.crash_restarts, 1);
        assert!(s.table().is_empty(), "flow table is volatile");
        assert!(!s.is_degraded(), "a restart is not degraded mode");
        let _ = ctrl;
    }

    #[test]
    fn table_hit_attests_when_sampling_on() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let mut fm = OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        );
        if let OfMessage::FlowMod { cookie, .. } = &mut fm {
            *cookie = 77;
        }
        let (mut world, ctrl, sw, _src, dst) = run(vec![fm]);
        world.node_mut::<AsSwitch>(sw).set_attest_every(1);
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<Sink>(dst).got.len(), 1);
        let s = world.node::<AsSwitch>(sw);
        assert_eq!(s.attestations_sent, 1);
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.attestations.len(), 1);
        let a = &c.attestations[0];
        assert_eq!((a.dpid, a.in_port, a.out_port, a.cookie), (7, 2, 3, 77));
        assert_eq!(a.tag, attestation_tag(7, 2, 3, 77));
        assert_eq!(a.pkt_tag, packet_tag(&key, test_packet().wire_len() as u64));
    }

    #[test]
    fn attestation_off_by_default() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, _dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        )]);
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<AsSwitch>(sw).attestations_sent, 0);
        assert!(world.node::<StubController>(ctrl).attestations.is_empty());
    }

    #[test]
    fn misforward_skews_output_but_attests_truth() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) = run(vec![OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        )]);
        world.node_mut::<AsSwitch>(sw).set_attest_every(1);
        world
            .install_fault_plan(&livesec_sim::FaultPlan::new(5).at(
                livesec_sim::SimTime::from_nanos(500_000),
                livesec_sim::FaultKind::SilentMisforward { node: sw },
            ))
            .expect("valid fault plan");
        world.run_for(SimDuration::from_millis(10));
        let s = world.node::<AsSwitch>(sw);
        assert_eq!(s.misforwarded_frames, 1);
        // The packet did NOT reach its intended sink...
        assert!(world.node::<Sink>(dst).got.is_empty());
        // ...the table still reads correct...
        let e = s.table().peek(2, &key).unwrap();
        assert_eq!(e.actions, vec![Action::Output(OutPort::Physical(3))]);
        // ...and the attestation reports the port actually used.
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.attestations.len(), 1);
        assert_ne!(c.attestations[0].out_port, 3);
    }

    #[test]
    fn rule_tamper_rewrites_entry_silently() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let mut fm = OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(3))],
            10,
        );
        if let OfMessage::FlowMod {
            cookie,
            notify_removed,
            ..
        } = &mut fm
        {
            *cookie = 77;
            *notify_removed = true;
        }
        let (mut world, ctrl, sw, _src, dst) = run(vec![fm]);
        world
            .install_fault_plan(&livesec_sim::FaultPlan::new(5).at(
                livesec_sim::SimTime::from_nanos(500_000),
                livesec_sim::FaultKind::RuleTamper { node: sw },
            ))
            .expect("valid fault plan");
        world.run_for(SimDuration::from_millis(10));
        let s = world.node::<AsSwitch>(sw);
        assert_eq!(s.rules_tampered, 1);
        let e = s.table().peek(2, &key).expect("entry still present");
        assert_eq!(e.cookie, 0, "tampered entry lost its cookie");
        assert_ne!(e.actions, vec![Action::Output(OutPort::Physical(3))]);
        assert!(world.node::<Sink>(dst).got.is_empty(), "misdirected");
        // Silent: no FlowRemoved despite notify_removed on the victim.
        assert!(world.node::<StubController>(ctrl).flow_removed.is_empty());
    }

    #[test]
    fn port_zero_off_the_wire_survives_misforward_and_tamper() {
        // Regression: the codec decodes any physical port below 0xff00,
        // 0 included, and both compromise paths rotated the port with
        // `p - 1 + skew`, which underflowed on port 0 and panicked the
        // switch under overflow checks.
        let key = FlowKey::of(&test_packet()).unwrap();
        let mut fm = OfMessage::add_flow(
            Match::exact(2, &key),
            vec![Action::Output(OutPort::Physical(0))],
            10,
        );
        if let OfMessage::FlowMod { cookie, .. } = &mut fm {
            *cookie = 77;
        }
        let (mut world, _ctrl, sw, _src, _dst) = run(vec![fm]);
        // The frame leaves at 1 ms, between the two compromises.
        world
            .install_fault_plan(
                &livesec_sim::FaultPlan::new(5)
                    .at(
                        livesec_sim::SimTime::from_nanos(500_000),
                        livesec_sim::FaultKind::SilentMisforward { node: sw },
                    )
                    .at(
                        livesec_sim::SimTime::from_nanos(5_000_000),
                        livesec_sim::FaultKind::RuleTamper { node: sw },
                    ),
            )
            .expect("valid fault plan");
        world.run_for(SimDuration::from_millis(10));
        let s = world.node::<AsSwitch>(sw);
        assert_eq!(s.misforwarded_frames, 1);
        assert_eq!(s.rules_tampered, 1);
        let e = s.table().peek(2, &key).expect("entry still present");
        match e.actions[..] {
            [Action::Output(OutPort::Physical(p))] => assert!((1..=4).contains(&p)),
            ref other => panic!("tampered actions {other:?}"),
        }
    }

    #[test]
    fn packet_inject_originates_attested_frame() {
        let (mut world, ctrl, sw, _src, _dst) = run(vec![]);
        // Attach a sink on the "uplink" port 1.
        let up = world.add_node(Sink { got: vec![] });
        world.connect(up, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.node_mut::<AsSwitch>(sw).set_attest_every(1);
        world
            .install_fault_plan(&livesec_sim::FaultPlan::new(5).at(
                livesec_sim::SimTime::from_nanos(500_000),
                livesec_sim::FaultKind::PacketInject { node: sw },
            ))
            .expect("valid fault plan");
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<AsSwitch>(sw).injected_packets, 1);
        assert_eq!(world.node::<Sink>(up).got.len(), 1, "frame hit the fabric");
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.attestations.len(), 1);
        let a = &c.attestations[0];
        assert_eq!(a.in_port, 0, "locally originated");
        assert_eq!(a.cookie, 0, "no admitted flow backs it");
    }

    /// A switch holding an uplink guard (a drop of ARP arriving on its
    /// uplink, port 1, below every steering entry) drops a gratuitous
    /// ARP echoed in on the uplink without a packet-in, while the same
    /// ARP at an access port still reaches the controller.
    #[test]
    fn the_uplink_guard_drops_echoed_arp_without_a_packet_in() {
        let arp = livesec_net::packet::arp_frame(livesec_net::ArpPacket::gratuitous(
            MacAddr::from_u64(5),
            "10.0.0.5".parse().unwrap(),
        ));
        let arp_type = livesec_net::EtherType::Arp.as_u16();
        let guard = Match::any().with_in_port(1).with_dl_type(arp_type);
        let mut world = World::new(1);
        let ctrl = world.add_node(StubController::new());
        let sw = world.add_node(AsSwitch::new(7, 4).with_controller(ctrl));
        for port in [1, 2] {
            let src = world.add_node(OneShot {
                pkt: Some(arp.clone()),
            });
            world.connect(src, PortId(1), sw, PortId(port), LinkSpec::gigabit());
        }
        let c = world.node_mut::<StubController>(ctrl);
        c.switch = Some(sw);
        c.outbox = vec![OfMessage::add_flow(guard, vec![], 50)];
        world.run_for(SimDuration::from_millis(10));
        let c = world.node::<StubController>(ctrl);
        let ports: Vec<u32> = c.packet_ins.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, [2], "only the access port's ARP is punted");
        assert_eq!(world.node::<AsSwitch>(sw).fast_path_frames, 1);
    }

    #[test]
    fn lldp_always_packet_in() {
        let probe = livesec_net::packet::lldp_frame(
            MacAddr::from_u64(5),
            livesec_net::LldpFrame::new(99, 1),
        );
        let mut world = World::new(1);
        let ctrl = world.add_node(StubController::new());
        let sw = world.add_node(AsSwitch::new(7, 4).with_controller(ctrl));
        let src = world.add_node(OneShot { pkt: Some(probe) });
        world.connect(src, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.node_mut::<StubController>(ctrl).switch = Some(sw);
        world.run_for(SimDuration::from_millis(10));
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.packet_ins.len(), 1);
        let pkt = wire::parse(&c.packet_ins[0].1).unwrap();
        assert_eq!(pkt.lldp().unwrap().chassis_id, 99);
    }
}
