//! The Access-Switching layer switch: a software OpenFlow switch.

use livesec_net::{wire, FixedState, FlowKey, MacAddr, Packet, PacketBuilder};
use livesec_openflow::{
    apply_actions_owned, attestation_tag, lookup_key, packet_tag, Action, FlowEntry,
    FlowModCommand, FlowRemovedReason, FlowStats, ForwardingAttestation, OfMessage, OutPort,
    PacketInReason, PortStats, PortStatusReason, StatsBody, StatsRequestKind, SwitchChannel,
};
use livesec_sim::{Ctx, Node, NodeId, PortId, SimDuration};
use std::any::Any;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Timer token for the periodic housekeeping tick.
const TICK: u64 = 1;
/// Housekeeping ticks between keepalive echoes on the secure channel.
const ECHO_EVERY_TICKS: u64 = 10;
/// Housekeeping ticks of controller silence before the switch declares
/// its controller unreachable and enters its fail mode (3 s at the
/// default 100 ms tick — three missed keepalive rounds).
const DEFAULT_CTRL_TIMEOUT_TICKS: u64 = 30;
/// First reconnect-hello retry interval while degraded, in ticks.
const BACKOFF_START_TICKS: u64 = 5;
/// Reconnect backoff cap, in ticks (8 s at the default tick).
const BACKOFF_CAP_TICKS: u64 = 80;

/// What an [`AsSwitch`] does with table misses while its controller is
/// unreachable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailMode {
    /// Fail-secure (the OpenFlow "fail secure mode"): installed flows
    /// keep forwarding, table misses are dropped. Nothing traverses the
    /// network that the controller has not explicitly admitted.
    #[default]
    Secure,
    /// Fail-standalone: the switch degrades to a plain MAC-learning
    /// bridge for table misses, trading policy enforcement for
    /// connectivity (OvS's "standalone" fail mode).
    Standalone,
}

/// A software OpenFlow switch of the Access-Switching layer.
///
/// Models Open vSwitch as deployed in the paper (and, behind slower
/// links, the Pantou OF Wi-Fi APs): a flow table driven entirely by the
/// controller over a secure channel, with packet-ins for table misses.
///
/// Port conventions follow the deployment builder in `livesec`:
/// port 1 is the uplink into the Legacy-Switching layer, ports 2.. are
/// Network-Periphery access ports (hosts, service elements).
pub struct AsSwitch {
    channel: SwitchChannel,
    table: livesec_openflow::FlowTable,
    controller: Option<NodeId>,
    n_ports: u32,
    tick: SimDuration,
    down_ports: HashSet<u32, FixedState>,
    pending_status: Vec<(PortStatusReason, u32)>,
    table_limit: Option<usize>,
    ticks: u64,
    fail_mode: FailMode,
    ctrl_timeout_ticks: u64,
    last_ctrl_tick: u64,
    degraded: bool,
    reconnect_backoff: u64,
    next_hello_tick: u64,
    l2: HashMap<MacAddr, u32, FixedState>,
    /// The matched entry's action list, copied out for the length of
    /// one forward: the entry borrows the table, emitting borrows the
    /// whole switch. Reused, so a table hit allocates nothing.
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
    /// Flow-mod adds rejected because the table was full.
    pub table_full_rejections: u64,
    /// Times the switch declared its controller unreachable.
    pub degraded_entries: u64,
    /// Reconnect hellos sent while degraded (capped exponential backoff).
    pub reconnect_hellos: u64,
    /// Table misses dropped in fail-secure degraded mode.
    pub fail_secure_drops: u64,
    /// Frames bridged by the L2 fallback in fail-standalone mode.
    pub standalone_frames: u64,
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
            tick: SimDuration::from_millis(100),
            down_ports: HashSet::default(),
            pending_status: Vec::new(),
            table_limit: None,
            ticks: 0,
            fail_mode: FailMode::Secure,
            ctrl_timeout_ticks: DEFAULT_CTRL_TIMEOUT_TICKS,
            last_ctrl_tick: 0,
            degraded: false,
            reconnect_backoff: BACKOFF_START_TICKS,
            next_hello_tick: 0,
            l2: HashMap::default(),
            action_buf: Vec::new(),
            attest_every: 0,
            misforward: None,
            fast_path_frames: 0,
            packet_ins: 0,
            table_full_rejections: 0,
            degraded_entries: 0,
            reconnect_hellos: 0,
            fail_secure_drops: 0,
            standalone_frames: 0,
            crash_restarts: 0,
            attestations_sent: 0,
            rules_tampered: 0,
            misforwarded_frames: 0,
            injected_packets: 0,
        }
    }

    /// Enables forwarding attestation at a `1/every` sampling rate:
    /// every table-hit forward whose packet tag divides `every` is
    /// attested to the controller. 0 (the default) disables
    /// attestation — existing deployments are byte-identical.
    pub fn with_attest_every(mut self, every: u64) -> Self {
        self.attest_every = every;
        self
    }

    /// Runtime setter for the attestation sampling divisor.
    pub fn set_attest_every(&mut self, every: u64) {
        self.attest_every = every;
    }

    /// The attestation sampling divisor (0 = attestation off).
    pub fn attest_every(&self) -> u64 {
        self.attest_every
    }

    /// Whether the switch is currently in silent-misforward mode.
    pub fn is_misforwarding(&self) -> bool {
        self.misforward.is_some()
    }

    /// Caps the flow table at `limit` entries: further adds are
    /// rejected (and counted), as a hardware TCAM or a configured OvS
    /// limit would. Replacements of existing entries still succeed.
    pub fn with_table_limit(mut self, limit: usize) -> Self {
        self.table_limit = Some(limit);
        self
    }

    /// Points the secure channel at the controller node.
    pub fn with_controller(mut self, controller: NodeId) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Sets the housekeeping tick (flow expiry, port-status flush).
    pub fn with_tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets what happens to table misses while the controller is
    /// unreachable (default: [`FailMode::Secure`]).
    pub fn with_fail_mode(mut self, mode: FailMode) -> Self {
        self.fail_mode = mode;
        self
    }

    /// Runtime setter for the fail mode.
    pub fn set_fail_mode(&mut self, mode: FailMode) {
        self.fail_mode = mode;
    }

    /// Sets the controller-silence threshold, in housekeeping ticks,
    /// after which the switch enters its fail mode.
    pub fn with_ctrl_timeout_ticks(mut self, ticks: u64) -> Self {
        self.ctrl_timeout_ticks = ticks;
        self
    }

    /// Runtime setter for the controller-silence threshold.
    pub fn set_ctrl_timeout_ticks(&mut self, ticks: u64) {
        self.ctrl_timeout_ticks = ticks;
    }

    /// The configured fail mode.
    pub fn fail_mode(&self) -> FailMode {
        self.fail_mode
    }

    /// Whether the switch currently considers its controller
    /// unreachable and is operating in its fail mode.
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
            let bytes = self.channel.send(msg);
            ctx.send_control(c, bytes);
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
        let msg = OfMessage::PacketIn {
            in_port,
            reason,
            data: wire::serialize(pkt),
        };
        self.send_to_controller(ctx, &msg);
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
                        // livesec-lint: allow(hot-path-alloc, reason = "flood fans one frame out to every port; a copy per port is the semantics")
                        ctx.send(PortId(p), pkt.as_ref().clone());
                    }
                }
            }
            OutPort::Controller => {
                self.packet_in(ctx, in_port.unwrap_or(0), PacketInReason::Action, &pkt);
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the flow-mod message fields
    fn apply_flow_mod(
        &mut self,
        ctx: &mut Ctx<'_>,
        command: FlowModCommand,
        matcher: livesec_openflow::Match,
        priority: u16,
        actions: Vec<livesec_openflow::Action>,
        idle_timeout: Option<u64>,
        hard_timeout: Option<u64>,
        cookie: u64,
        notify_removed: bool,
    ) {
        let now = ctx.now().as_nanos();
        match command {
            FlowModCommand::Add => {
                if let Some(limit) = self.table_limit {
                    // A full table still takes an Add that replaces an
                    // entry; below the limit insert_at's own probe is
                    // the only one.
                    if self.table.len() >= limit && !self.table.contains_strict(&matcher, priority)
                    {
                        self.table_full_rejections += 1;
                        return;
                    }
                }
                let mut entry = FlowEntry::new(matcher, actions, priority).with_cookie(cookie);
                entry.idle_timeout = idle_timeout;
                entry.hard_timeout = hard_timeout;
                entry.notify_removed = notify_removed;
                self.table.insert_at(entry, now);
            }
            FlowModCommand::Modify => {
                self.table.modify_actions(&matcher, false, &actions);
            }
            FlowModCommand::ModifyStrict => {
                self.table.modify_actions(&matcher, true, &actions);
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = command == FlowModCommand::DeleteStrict;
                let removed = self
                    .table
                    .remove(&matcher, strict, strict.then_some(priority));
                for r in removed {
                    if r.entry.notify_removed {
                        let msg = OfMessage::FlowRemoved {
                            matcher: r.entry.matcher,
                            cookie: r.entry.cookie,
                            priority: r.entry.priority,
                            reason: FlowRemovedReason::Delete,
                            packet_count: r.entry.packet_count,
                            byte_count: r.entry.byte_count,
                        };
                        self.send_to_controller(ctx, &msg);
                    }
                }
            }
        }
    }

    fn answer_stats(&mut self, ctx: &mut Ctx<'_>, kind: StatsRequestKind) {
        let now = ctx.now().as_nanos();
        let body = match kind {
            StatsRequestKind::Flow(matcher) => StatsBody::Flow(
                self.table
                    .iter()
                    .filter(|e| matcher.subsumes(&e.matcher))
                    .map(|e| FlowStats {
                        matcher: e.matcher,
                        priority: e.priority,
                        cookie: e.cookie,
                        packet_count: e.packet_count,
                        byte_count: e.byte_count,
                        duration: now.saturating_sub(e.created_at),
                    })
                    .collect(),
            ),
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
        if let Some(c) = self.controller {
            let hello = self.channel.hello();
            ctx.send_control(c, hello);
        }
        ctx.set_timer(self.tick, TICK);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        let in_port = port.number();
        if self.down_ports.contains(&in_port) {
            return;
        }
        let Some(key) = lookup_key(&pkt) else {
            // LLDP and unknown EtherTypes always go to the controller.
            if self.degraded {
                self.degraded_miss(ctx, in_port, pkt);
            } else {
                self.packet_in(ctx, in_port, PacketInReason::NoMatch, &pkt);
            }
            return;
        };
        let now = ctx.now().as_nanos();
        let bytes = pkt.wire_len() as u64;
        let Some(entry) = self.table.lookup_counting(in_port, &key, now, bytes) else {
            // Installed flows keep forwarding in either fail mode; only
            // misses behave differently while the controller is gone.
            if self.degraded {
                self.degraded_miss(ctx, in_port, pkt);
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
                    OutPort::Physical((p - 1 + skew) % self.n_ports + 1)
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
        // the secure channel is gone; enter the configured fail mode.
        if self.controller.is_some()
            && !self.degraded
            && self.ticks.saturating_sub(self.last_ctrl_tick) > self.ctrl_timeout_ticks
        {
            self.degraded = true;
            self.degraded_entries += 1;
            self.l2.clear();
            self.reconnect_backoff = BACKOFF_START_TICKS;
            self.next_hello_tick = self.ticks; // first retry right away
        }
        if self.degraded {
            // Reconnect with capped exponential backoff: re-offer the
            // hello until the controller answers anything at all.
            if self.ticks >= self.next_hello_tick {
                let hello = self.channel.hello();
                if let Some(c) = self.controller {
                    ctx.send_control(c, hello);
                }
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
        for r in removed {
            if r.entry.notify_removed {
                let reason = match r.reason {
                    livesec_openflow::table::RemovalReason::IdleTimeout => {
                        FlowRemovedReason::IdleTimeout
                    }
                    livesec_openflow::table::RemovalReason::HardTimeout => {
                        FlowRemovedReason::HardTimeout
                    }
                    livesec_openflow::table::RemovalReason::Delete => FlowRemovedReason::Delete,
                };
                let msg = OfMessage::FlowRemoved {
                    matcher: r.entry.matcher,
                    cookie: r.entry.cookie,
                    priority: r.entry.priority,
                    reason,
                    packet_count: r.entry.packet_count,
                    byte_count: r.entry.byte_count,
                };
                self.send_to_controller(ctx, &msg);
            }
        }
        ctx.set_timer(self.tick, TICK);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        // Any arrival proves the secure channel is physically alive,
        // even if the payload turns out to be garbage: refresh liveness
        // and leave degraded mode before decoding.
        self.last_ctrl_tick = self.ticks;
        if self.degraded {
            self.degraded = false;
            self.l2.clear();
            self.reconnect_backoff = BACKOFF_START_TICKS;
        }
        // The controller may batch several messages into one payload
        // (flow-mod batches end with a barrier); frames are processed
        // strictly in order, so all entries of a batch are applied
        // before its barrier is acknowledged.
        let (replies, up) = match self.channel.receive_all(bytes) {
            Ok(r) => r,
            Err(_) => return, // malformed control traffic is dropped
        };
        for r in replies {
            ctx.send_control(peer, r);
        }
        for msg in up {
            self.handle_controller_message(ctx, msg);
        }
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
        self.l2.clear();
        self.reconnect_backoff = BACKOFF_START_TICKS;
        self.last_ctrl_tick = self.ticks; // boot grace period
        if let Some(c) = self.controller {
            let hello = self.channel.hello();
            ctx.send_control(c, hello);
        }
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
        if pool.is_empty() {
            return; // nothing to tamper with
        }
        let victim = pool[(salt % pool.len() as u64) as usize];
        let matcher = victim.matcher;
        let priority = victim.priority;
        let skew = 1 + (salt >> 32) as u32 % (self.n_ports - 1).max(1);
        let actions: Vec<Action> = victim
            .actions
            .iter()
            .map(|a| match *a {
                Action::Output(OutPort::Physical(p)) => {
                    Action::Output(OutPort::Physical((p - 1 + skew) % self.n_ports + 1))
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
    /// Handles a table miss while the controller is unreachable.
    fn degraded_miss(&mut self, ctx: &mut Ctx<'_>, in_port: u32, pkt: Packet) {
        match self.fail_mode {
            FailMode::Secure => {
                self.fail_secure_drops += 1;
            }
            FailMode::Standalone => {
                // Plain learning bridge, like the Legacy-Switching
                // layer: learn the source, unicast if known, else flood.
                self.standalone_frames += 1;
                if pkt.eth.src.is_unicast() {
                    self.l2.insert(pkt.eth.src, in_port);
                }
                if pkt.eth.dst.is_unicast() {
                    if let Some(&out) = self.l2.get(&pkt.eth.dst) {
                        if out != in_port {
                            self.emit(ctx, OutPort::Physical(out), Some(in_port), Cow::Owned(pkt));
                        }
                        return;
                    }
                }
                self.emit(ctx, OutPort::Flood, Some(in_port), Cow::Owned(pkt));
            }
        }
    }

    /// Applies one controller message that the secure channel surfaced
    /// (everything the channel doesn't answer by itself).
    fn handle_controller_message(&mut self, ctx: &mut Ctx<'_>, msg: OfMessage) {
        match msg {
            OfMessage::FlowMod {
                command,
                matcher,
                priority,
                actions,
                idle_timeout,
                hard_timeout,
                cookie,
                notify_removed,
            } => self.apply_flow_mod(
                ctx,
                command,
                matcher,
                priority,
                actions,
                idle_timeout,
                hard_timeout,
                cookie,
                notify_removed,
            ),
            OfMessage::PacketOut {
                in_port,
                actions,
                data,
            } => {
                if let Ok(pkt) = wire::parse(&data) {
                    apply_actions_owned(pkt, &actions, |dest, out_pkt| {
                        self.emit(ctx, dest, in_port, out_pkt)
                    });
                }
            }
            OfMessage::StatsRequest(kind) => self.answer_stats(ctx, kind),
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
        /// Messages pushed only after `late_at` elapses (a controller
        /// that "comes back" mid-run).
        late_outbox: Vec<OfMessage>,
        late_at: Option<SimDuration>,
        packet_ins: Vec<(u32, Vec<u8>)>,
        flow_removed: Vec<OfMessage>,
        port_status: Vec<OfMessage>,
        attestations: Vec<ForwardingAttestation>,
    }

    impl StubController {
        fn new() -> Self {
            StubController {
                switch: None,
                outbox: Vec::new(),
                late_outbox: Vec::new(),
                late_at: None,
                packet_ins: Vec::new(),
                flow_removed: Vec::new(),
                port_status: Vec::new(),
                attestations: Vec::new(),
            }
        }
    }

    impl Node for StubController {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(sw) = self.switch {
                for (i, msg) in self.outbox.iter().enumerate() {
                    ctx.send_control(sw, codec::encode(msg, i as u32));
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
            actions: vec![Action::Output(OutPort::Physical(3))],
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
            actions: vec![Action::Output(OutPort::Physical(3))],
            data: wire::serialize(&test_packet()),
        }]);
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<Sink>(dst).got.len(), 1);
    }

    #[test]
    fn table_limit_rejects_overflow_but_allows_replacement() {
        let keys: Vec<FlowKey> = (0..3u16)
            .map(|i| {
                let mut k = FlowKey::of(&test_packet()).unwrap();
                k.tp_src = 1000 + i;
                k
            })
            .collect();
        let mut outbox: Vec<OfMessage> = keys
            .iter()
            .map(|k| {
                OfMessage::add_flow(
                    Match::exact(2, k),
                    vec![Action::Output(OutPort::Physical(3))],
                    10,
                )
            })
            .collect();
        // A replacement of the first entry must still be allowed.
        outbox.push(OfMessage::add_flow(
            Match::exact(2, &keys[0]),
            vec![Action::Output(OutPort::Physical(4))],
            10,
        ));
        let mut world = World::new(1);
        let ctrl = world.add_node(StubController::new());
        let sw = world.add_node(
            AsSwitch::new(7, 4)
                .with_controller(ctrl)
                .with_table_limit(2),
        );
        world.node_mut::<StubController>(ctrl).switch = Some(sw);
        world.node_mut::<StubController>(ctrl).outbox = outbox;
        world.run_for(SimDuration::from_millis(10));
        let s = world.node::<AsSwitch>(sw);
        assert_eq!(s.table().len(), 2, "third add rejected");
        assert_eq!(s.table_full_rejections, 1);
        // The replacement landed: entry 0 now outputs to port 4.
        let e = s.table().peek(2, &keys[0]).unwrap();
        assert_eq!(e.actions, vec![Action::Output(OutPort::Physical(4))]);
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
    /// port 2 and one sink on port 3.
    fn run_degraded(
        mode: FailMode,
        send_at: SimDuration,
    ) -> (World, NodeId, NodeId, NodeId, NodeId) {
        let mut world = World::new(1);
        let ctrl = world.add_node(StubController::new());
        let sw = world.add_node(
            AsSwitch::new(7, 4)
                .with_controller(ctrl)
                .with_fail_mode(mode)
                .with_ctrl_timeout_ticks(2),
        );
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
        let (mut world, _ctrl, sw, _src, _dst) =
            run_degraded(FailMode::Secure, SimDuration::from_secs(9));
        world.run_for(SimDuration::from_millis(250));
        assert!(!world.node::<AsSwitch>(sw).is_degraded(), "within timeout");
        world.run_for(SimDuration::from_millis(300));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_degraded(), "timeout exceeded");
        assert_eq!(s.degraded_entries, 1);
    }

    #[test]
    fn fail_secure_drops_misses_but_keeps_installed_flows() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) =
            run_degraded(FailMode::Secure, SimDuration::from_secs(1));
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
        world.run_for(SimDuration::from_secs(2));
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
    fn fail_standalone_falls_back_to_l2_learning() {
        let (mut world, ctrl, sw, _src, dst) =
            run_degraded(FailMode::Standalone, SimDuration::from_secs(1));
        world.run_for(SimDuration::from_secs(2));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_degraded());
        assert_eq!(s.standalone_frames, 1);
        assert_eq!(
            world.node::<Sink>(dst).got.len(),
            1,
            "unknown destination flooded to the sink"
        );
        assert!(world.node::<StubController>(ctrl).packet_ins.is_empty());
    }

    #[test]
    fn reconnect_hellos_back_off_exponentially() {
        let (mut world, _ctrl, sw, _src, _dst) =
            run_degraded(FailMode::Secure, SimDuration::from_secs(60));
        // Degraded at tick 3; hellos at ticks 3, 8, 18, 38, 78, then
        // every 80 (the cap). 40 s = 400 ticks -> 5 + 4 = 9 hellos.
        world.run_for(SimDuration::from_secs(40));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_degraded());
        assert_eq!(
            s.reconnect_hellos, 9,
            "capped exponential backoff, not per-tick spam"
        );
    }

    #[test]
    fn control_arrival_exits_degraded_mode() {
        let key = FlowKey::of(&test_packet()).unwrap();
        let (mut world, ctrl, sw, _src, dst) =
            run_degraded(FailMode::Secure, SimDuration::from_secs(2));
        // The controller "comes back" after 1.5 s with a flow-mod for
        // the delayed packet.
        {
            let c = world.node_mut::<StubController>(ctrl);
            c.switch = Some(sw);
            c.late_at = Some(SimDuration::from_millis(1500));
            c.late_outbox = vec![OfMessage::add_flow(
                Match::exact(2, &key),
                vec![Action::Output(OutPort::Physical(3))],
                10,
            )];
        }
        world.run_for(SimDuration::from_secs(1));
        assert!(world.node::<AsSwitch>(sw).is_degraded());
        // Shortly after the late flow-mod lands the switch is healthy
        // again (with this test's 2-tick timeout it will re-degrade
        // once the controller goes silent again, so check promptly).
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
        world.install_fault_plan(&livesec_sim::FaultPlan::new(1).at(
            livesec_sim::SimTime::from_nanos(5_000_000),
            livesec_sim::FaultKind::CrashRestart { node: sw },
        ));
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
        world.install_fault_plan(&livesec_sim::FaultPlan::new(5).at(
            livesec_sim::SimTime::from_nanos(500_000),
            livesec_sim::FaultKind::SilentMisforward { node: sw },
        ));
        world.run_for(SimDuration::from_millis(10));
        let s = world.node::<AsSwitch>(sw);
        assert!(s.is_misforwarding());
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
        world.install_fault_plan(&livesec_sim::FaultPlan::new(5).at(
            livesec_sim::SimTime::from_nanos(500_000),
            livesec_sim::FaultKind::RuleTamper { node: sw },
        ));
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
    fn packet_inject_originates_attested_frame() {
        let (mut world, ctrl, sw, _src, _dst) = run(vec![]);
        // Attach a sink on the "uplink" port 1.
        let up = world.add_node(Sink { got: vec![] });
        world.connect(up, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.node_mut::<AsSwitch>(sw).set_attest_every(1);
        world.install_fault_plan(&livesec_sim::FaultPlan::new(5).at(
            livesec_sim::SimTime::from_nanos(500_000),
            livesec_sim::FaultKind::PacketInject { node: sw },
        ));
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.node::<AsSwitch>(sw).injected_packets, 1);
        assert_eq!(world.node::<Sink>(up).got.len(), 1, "frame hit the fabric");
        let c = world.node::<StubController>(ctrl);
        assert_eq!(c.attestations.len(), 1);
        let a = &c.attestations[0];
        assert_eq!(a.in_port, 0, "locally originated");
        assert_eq!(a.cookie, 0, "no admitted flow backs it");
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
