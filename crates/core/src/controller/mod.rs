//! The LiveSec controller (the paper's NOX-based controller,
//! §III–§IV).
//!
//! One logically central node terminates every AS switch's secure
//! channel and implements, on packet-in events:
//!
//! * LLDP topology discovery ([`crate::topology`]),
//! * ARP location discovery and the directory proxy
//!   ([`crate::location`], [`crate::directory`]),
//! * interactive policy enforcement ([`crate::policy`],
//!   [`crate::routing`]),
//! * service-element management and load balancing
//!   ([`crate::balance`]),
//! * monitoring and replay ([`crate::monitor`]).
//!
//! Each input has one handler: a `&mut self` method that takes the
//! simulated time and writes only controller state, the per-dispatch
//! outbox and the [`Monitor`]. `impl Node for Controller` is the only
//! code that touches the simulator: it reads the clock, answers echo
//! requests, re-arms the tick and flushes. The handlers, by module:
//!
//! * `session` — the message dispatch, handshake, liveness and tick,
//!   audit and reconcile, port status, LLDP probing, quarantine;
//! * `hosts` — the packet-in demux, the location rule, the ARP and
//!   DHCP proxies, SE messages, departures;
//! * `flows` — set-up, repair, flow-removed accounting, fast-passes,
//!   verdicts, blocks, path proofs, policy deltas;
//! * `outbox` — flow entries and per-switch batches.
//!
//! A switch has one record per lifetime: its
//! [`crate::topology::SwitchInfo`] (liveness stamp, audit in flight,
//! uplink) lasts one registration and goes in `mark_switch_down`'s one
//! call; its `Datapath` (quarantine, standing blocks, uplink guard,
//! port-stats baseline) lasts for good.
//!
//! A MAC has one record, in the location table: its location, its IP
//! index entry and, for a service element, its view. It has one way
//! in, `locate` (every access-port packet-in locates its sender, an
//! element's heartbeat too, which then registers the element), and one
//! way out, `depart`, which removes all of it and takes an online
//! element offline: no element is known and nowhere.

mod flows;
mod hosts;
mod outbox;
mod session;

use crate::accountability::{
    flow_sig, AccountabilityDetector, AccountabilityStats, Deviation, FlowSig, PathProof,
    ProofSource,
};
use crate::balance::LoadBalancer;
use crate::directory::DirectoryProxy;
use crate::engine::{self, EngineDecision};
use crate::location::{LearnOutcome, LocationTable};
use crate::monitor::{ConnTrackStats, EventKind, FastPathStats, HealthStats, Monitor};
use crate::policy::{AppAction, PolicyDecision, PolicyDelta, PolicyTable};
use crate::routing::{Hop, SteeringProgram};
use crate::topology::TopologyMap;
use livesec_net::packet::{arp_frame, lldp_frame};
use livesec_net::{wire, ArpOp, ArpPacket, DhcpMessage, EtherType, FlowKey, HashMap};
use livesec_net::{LldpFrame, MacAddr, Packet, PacketBuilder};
use livesec_openflow::codec::{self, Check, FlowModRef, FlowStatsRef, Frame};
use livesec_openflow::{Action, FlowModCommand, FlowStats, Match, OfMessage};
use livesec_openflow::{PortStatusReason, StatsBody, StatsRequestKind};
use livesec_services::{SeMessage, ServiceType, Verdict, SE_CONTROL_PORT};
use livesec_sim::{Ctx, Node, NodeId, PortId, SimDuration, SimTime};
use outbox::{delete_strict, ingress_cookies, Entry, Outbox};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Timer token for the controller's housekeeping tick.
const TICK: u64 = 1;
/// Period of the housekeeping tick; the `*_EVERY_TICKS` schedules and
/// [`Controller::set_stats_polling`] count in these.
const TICK_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Cookie tagging the forward-ingress entry of each flow.
pub const INGRESS_COOKIE: u64 = 1;
/// Cookie tagging the reverse-ingress entry (carries the response
/// volume; both removals together finalize the session's statistics).
pub const REVERSE_COOKIE: u64 = 2;
/// Cookie tagging drop entries installed for detected attacks; part of
/// the desired state the reconciliation audit restores.
pub const BLOCK_COOKIE: u64 = 3;
/// Cookie tagging drop entries for policy-denied flows. The controller
/// keeps no record of denials (they self-expire via their idle
/// timeout), so the audit must recognize and skip them.
pub const DENY_COOKIE: u64 = 4;
/// Cookie tagging the forward ingress entry of an established-flow
/// fast-pass (direct path that bypasses the service-element hairpin).
pub const FASTPASS_COOKIE: u64 = 5;
/// Cookie tagging the reverse ingress entry of a fast-pass.
pub const FASTPASS_REV_COOKIE: u64 = 6;
/// Cookie tagging a switch's uplink guard, the standing entry that
/// drops ARP arriving on its uplink; part of the desired state the
/// reconciliation audit restores.
pub const GUARD_COOKIE: u64 = 7;

/// Priority of steering/forwarding entries.
pub const STEER_PRIORITY: u16 = 100;
/// Priority of fast-pass entries: wins over steering (the established
/// flow skips its chain) but loses to drop entries (a block always
/// stops the flow, fast-passed or not).
pub const FASTPASS_PRIORITY: u16 = 150;
/// Priority of drop entries (wins over steering).
pub const BLOCK_PRIORITY: u16 = 200;
/// Priority of the uplink guard: below every steering, fast-pass,
/// relay and drop entry, so each of them still wins.
pub const GUARD_PRIORITY: u16 = 50;
const _: () = assert!(GUARD_PRIORITY < STEER_PRIORITY);

/// What outlives a switch's sessions, from its id's first registration
/// on; one session's facts are its [`crate::topology::SwitchInfo`].
#[derive(Debug, Default)]
struct Datapath {
    /// Convicted of a forwarding deviation: all its channel says,
    /// hellos included, is dropped at the door until it is released.
    quarantined: bool,
    /// Standing attack-block drops (insertion order, deduplicated):
    /// security state that outlives flows, crashes and partitions.
    blocks: Vec<Match>,
    /// The uplink port its guard drops ARP on, once LLDP has named it.
    /// Kept across sessions, so a rejoin audit reinstalls the guard a
    /// crash wiped before LLDP has re-learned the uplink.
    guard: Option<u32>,
    /// Each port's last `(tx, rx)` bytes, its next `LinkLoad`'s base.
    port_stats: HashMap<u32, (u64, u64)>,
}

/// Book-keeping for one admitted flow.
#[derive(Clone, Debug)]
struct FlowRecord {
    chain: Vec<ServiceType>,
    elements: Vec<MacAddr>,
    ingress_dpid: u64,
    /// The installed steering programs — the desired flow-table state
    /// the reconciliation audit checks switches against.
    forward: Rc<SteeringProgram>,
    reverse: Rc<SteeringProgram>,
    /// The drop entry an attack verdict installed for this flow, as
    /// (dpid, matcher); a flow that has one is blocked.
    block: Option<(u64, Match)>,
    /// When the programs were last (re)installed; packet-ins older
    /// than `flows::REPAIR_GUARD` past this trigger a reinstall.
    installed_at: SimTime,
    app: Option<String>,
    /// (packets, bytes) from the removed forward-ingress entry.
    fwd_done: Option<(u64, u64)>,
    /// (packets, bytes) from the removed reverse-ingress entry.
    rev_done: Option<(u64, u64)>,
}

impl FlowRecord {
    /// The steering entries this record puts on switches.
    fn entries(&self, idle: SimDuration) -> impl Iterator<Item = Entry<'_>> {
        Entry::of_programs(&self.forward, &self.reverse, ProofSource::Steering, idle)
    }
}

/// Book-keeping for one installed established-flow fast-pass: the
/// compiled direct-path programs. A policy or topology change that
/// could stale one tears it down where the change is made, so a
/// standing record is always current.
#[derive(Clone, Debug)]
struct FastPassRecord {
    forward: Rc<SteeringProgram>,
    reverse: Rc<SteeringProgram>,
}

impl FastPassRecord {
    /// The fast-pass entries this record puts on switches.
    fn entries(&self, idle: SimDuration) -> impl Iterator<Item = Entry<'_>> {
        Entry::of_programs(&self.forward, &self.reverse, ProofSource::FastPass, idle)
    }
}

/// Accumulated traffic figures for one application label or user —
/// the paper's §IV-C "service-aware statistics".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TrafficTally {
    /// Completed flows attributed.
    pub flows: u64,
    /// Packets those flows carried (ingress-entry counters).
    pub packets: u64,
    /// Bytes those flows carried.
    pub bytes: u64,
}

/// A tally table's rows, sorted by bytes descending, ties by key.
fn by_bytes<K: Clone + Ord>(tallies: &BTreeMap<K, TrafficTally>) -> Vec<(K, TrafficTally)> {
    let mut v: Vec<(K, TrafficTally)> = tallies.iter().map(|(k, t)| (k.clone(), *t)).collect();
    v.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
    v
}

/// A point-in-time export of the controller's network information
/// base — the Onix-style NIB of the paper's §II, and the data feed a
/// topology UI renders.
#[derive(Clone, Debug, serde::Serialize)]
pub struct NibSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Registered switches: (dpid, port count, uplink port).
    pub switches: Vec<(u64, u32, Option<u32>)>,
    /// Discovered logical links: (from dpid+port, to dpid+port).
    pub links: Vec<((u64, u32), (u64, u32))>,
    /// Located hosts: (mac, ip, dpid, port).
    pub hosts: Vec<(MacAddr, Ipv4Addr, u64, u32)>,
    /// Known service elements.
    pub elements: Vec<crate::balance::SeView>,
    /// Active flows with their chains and identified apps.
    pub active_flows: Vec<(FlowKey, Vec<ServiceType>, Option<String>)>,
    /// Per-application traffic totals (completed flows).
    pub app_traffic: Vec<(String, TrafficTally)>,
    /// Per-user traffic totals (completed flows).
    pub user_traffic: Vec<(MacAddr, TrafficTally)>,
}

/// The LiveSec controller node.
///
/// Construct with [`Controller::new`], add to the
/// [`livesec_sim::World`], and point every [`livesec_switch::AsSwitch`]
/// at it ([`crate::deploy::CampusBuilder`] does all three). Ten
/// values are settable, each through one `set_*` method that documents
/// its default; everything else that paces the controller is a
/// constant of its modules. The [`crate::controller`] module docs
/// name the module that handles each input.
pub struct Controller {
    topo: TopologyMap,
    locations: LocationTable,
    policy: PolicyTable,
    balancer: LoadBalancer,
    monitor: Monitor,
    directory: Option<DirectoryProxy>,
    // Ordered: iteration order reaches flow-mod batches, the NIB
    // snapshot and reconciliation, so it is part of the spec
    // (DESIGN.md §6).
    active: BTreeMap<FlowKey, FlowRecord>,
    /// The active keys per `(vlan, signature)`: the least of them and
    /// how many there are. A verdict's key, whose MACs steering
    /// rewrote, finds its flow here (`canonical_key`).
    by_sig: HashMap<(Option<u16>, FlowSig), (FlowKey, u32)>,
    required_certs: Option<BTreeSet<u64>>,
    /// `(key, ingress dpid, egress dpid)` of the most recent flow
    /// admission — taken by the sharded plane to count flows whose
    /// ingress and egress land on different shards (handoffs).
    last_setup: Option<(FlowKey, u64, u64)>,
    /// Control messages queued during the current event dispatch,
    /// and the batching counters of `fast_path_stats`.
    tx: Outbox,

    /// Every datapath id ever registered. Never pruned.
    datapaths: BTreeMap<u64, Datapath>,
    /// The audited table's `(matcher, priority)` keys, each marked
    /// once the desired state names it: `reconcile`'s one working set,
    /// cleared and refilled per audit, its capacity kept.
    audit_keys: HashMap<(Match, u16), bool>,
    /// Fault-tolerance counters surfaced by `health_stats`.
    health: HealthStats,

    /// Installed established-flow fast-passes, keyed by the flow's
    /// original direction. Ordered: iteration order reaches flow-mod
    /// batches and the reconciliation audit (DESIGN.md §6).
    fastpasses: BTreeMap<FlowKey, FastPassRecord>,
    /// Flows a firewall element has reported established since the
    /// last policy change that covers them. Survives the fast-pass
    /// itself so a flow whose entries were wiped by a switch restart
    /// gets its fast-pass reinstalled on the next packet-in (the
    /// element only reports each connection's establishment once).
    established_conns: BTreeSet<FlowKey>,
    /// Whether established-flow fast-passes are installed at all.
    fastpass_enabled: bool,
    /// Idle timeout of fast-pass entries.
    fastpass_idle: SimDuration,
    /// Connection-tracking counters surfaced by `conntrack_stats`.
    conntrack: ConnTrackStats,

    /// Replays forwarding attestations against controller-issued path
    /// proofs and names deviating switches (DESIGN.md §11).
    detector: AccountabilityDetector,
    /// Control messages dropped at the quarantine gate.
    quarantine_drops: u64,

    /// Poll port statistics every this many ticks (0 = never).
    stats_every_ticks: u64,
    arp_timeout: SimDuration,
    se_timeout: SimDuration,
    flow_idle_timeout: SimDuration,
    tick_count: u64,
    app_traffic: BTreeMap<String, TrafficTally>,
    user_traffic: BTreeMap<MacAddr, TrafficTally>,

    /// Packet-ins processed.
    pub packet_ins: u64,
    /// Flows admitted and installed.
    pub flows_installed: u64,
    /// ARP requests answered by the directory proxy.
    pub arp_replies: u64,
    /// Service-element control messages accepted.
    pub se_msgs: u64,
    /// Service-element control messages rejected (bad certificate).
    pub rejected_se_msgs: u64,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("active_flows", &self.active.len())
            .field("datapaths", &self.datapaths.len())
            .field("packet_ins", &self.packet_ins)
            .field("flows_installed", &self.flows_installed)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller with the defaults described on each
    /// `set_*` method.
    pub fn new() -> Self {
        Controller {
            topo: TopologyMap::new(),
            locations: LocationTable::new(),
            policy: PolicyTable::allow_all(),
            balancer: LoadBalancer::min_load(),
            monitor: Monitor::new(),
            directory: None,
            active: BTreeMap::new(),
            by_sig: HashMap::default(),
            required_certs: None,
            last_setup: None,
            tx: Outbox::new(),
            datapaths: BTreeMap::new(),
            audit_keys: HashMap::default(),
            health: HealthStats::default(),
            fastpasses: BTreeMap::new(),
            established_conns: BTreeSet::new(),
            fastpass_enabled: true,
            fastpass_idle: SimDuration::from_secs(5),
            conntrack: ConnTrackStats::default(),
            detector: AccountabilityDetector::new(),
            quarantine_drops: 0,
            stats_every_ticks: 0,
            arp_timeout: SimDuration::from_secs(60),
            se_timeout: SimDuration::from_millis(500),
            flow_idle_timeout: SimDuration::from_secs(2),
            tick_count: 0,
            app_traffic: BTreeMap::new(),
            user_traffic: BTreeMap::new(),
            packet_ins: 0,
            flows_installed: 0,
            arp_replies: 0,
            se_msgs: 0,
            rejected_se_msgs: 0,
        }
    }

    /// The monitor (event database).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The routing table: every located MAC's location and, for a
    /// service element, its view.
    pub fn locations(&self) -> &LocationTable {
        &self.locations
    }

    /// The topology map.
    pub fn topology(&self) -> &TopologyMap {
        &self.topo
    }

    /// The location table under its former name, the element registry:
    /// an alias of [`Controller::locations`].
    pub fn registry(&self) -> &LocationTable {
        &self.locations
    }

    /// The policy table.
    pub fn policy(&self) -> &PolicyTable {
        &self.policy
    }

    /// Replaces the policy table (default: allow everything). The
    /// next packet-in is decided under the new table; every fast-pass
    /// goes with the old one.
    pub fn set_policy(&mut self, policy: PolicyTable) {
        self.policy_changed();
        self.policy = policy;
    }

    /// Records that the policy table may have changed *wholesale*:
    /// tears down every fast-pass and forgets every establishment
    /// report (a connection admitted under the old policy may no
    /// longer be allowed to bypass its chain). Scoped edits go through
    /// [`Controller::apply_policy_delta`] instead.
    fn policy_changed(&mut self) {
        self.invalidate_fastpasses(|_| true);
        self.established_conns.clear();
    }

    /// Records that the topology may have changed: tears down every
    /// fast-pass (its direct path was compiled through the old
    /// topology). The establishment reports stand, so a repair or a
    /// repeat packet-in reinstalls the fast-pass over the new topology.
    fn topology_changed(&mut self) {
        self.invalidate_fastpasses(|_| true);
    }

    /// Mutable access to the monitor (the plane records shard
    /// failover).
    pub(crate) fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Takes the `(key, ingress dpid, egress dpid)` of the flow
    /// admitted during the current dispatch, if any.
    pub(crate) fn take_last_setup(&mut self) -> Option<(FlowKey, u64, u64)> {
        self.last_setup.take()
    }

    /// Replaces the load balancer (default: minimum-load at flow
    /// grain). The next chained set-up picks through it.
    pub fn set_balancer(&mut self, balancer: LoadBalancer) {
        self.balancer = balancer;
    }

    /// Requires SE control messages to carry one of these certificate
    /// tokens (default: no certification required).
    pub fn set_required_certs(&mut self, certs: BTreeSet<u64>) {
        self.required_certs = Some(certs);
    }

    /// Authorizes one more certificate token.
    ///
    /// # Panics
    ///
    /// Panics if certification was never enabled (that would silently
    /// authorize nothing).
    #[allow(
        clippy::expect_used,
        reason = "documented API-misuse panic: silently authorizing nothing would be worse"
    )]
    pub fn authorize_cert(&mut self, cert: u64) {
        self.required_certs
            .as_mut()
            .expect("enable certification before authorizing tokens")
            .insert(cert);
    }

    /// Sets the idle timeout of installed flow entries (default 2 s).
    pub fn set_flow_idle_timeout(&mut self, d: SimDuration) {
        self.flow_idle_timeout = d;
    }

    /// Sets the ARP/location timeout (default 60 s) — how long a
    /// silent host stays in the routing table.
    pub fn set_arp_timeout(&mut self, d: SimDuration) {
        self.arp_timeout = d;
    }

    /// Sets the SE heartbeat timeout (default 500 ms).
    pub fn set_se_timeout(&mut self, d: SimDuration) {
        self.se_timeout = d;
    }

    /// Enables the DHCP half of the directory proxy (default: off).
    pub fn set_directory(&mut self, directory: DirectoryProxy) {
        self.directory = Some(directory);
    }

    /// Polls port statistics every `every` housekeeping ticks (100 ms
    /// each), producing `LinkLoad` monitor events (default 0: never).
    pub fn set_stats_polling(&mut self, every: u64) {
        self.stats_every_ticks = every;
    }

    /// Enables or disables established-flow fast-passes (default:
    /// enabled): when a firewall element reports a connection
    /// established, the controller installs a direct bidirectional
    /// path above steering priority so the rest of the connection
    /// skips the service-element hairpin. Disabling tears down every
    /// installed fast-pass (the entries are deleted on the next flush;
    /// the flows fall back to their steering programs).
    pub fn set_fastpass(&mut self, enabled: bool) {
        self.fastpass_enabled = enabled;
        if !enabled {
            self.invalidate_fastpasses(|_| true);
        }
    }

    /// Sets the idle timeout of fast-pass entries (default 5 s).
    pub fn set_fastpass_idle(&mut self, d: SimDuration) {
        self.fastpass_idle = d;
    }

    /// The directory proxy, if enabled (for lease inspection).
    pub fn directory(&self) -> Option<&DirectoryProxy> {
        self.directory.as_ref()
    }

    /// Number of currently-tracked active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    /// The service chain assigned to an active flow.
    pub fn chain_of(&self, key: &FlowKey) -> Option<&[ServiceType]> {
        self.active.get(key).map(|r| r.chain.as_slice())
    }

    /// The standing block registry as `(dpid, matcher)` pairs, sorted
    /// by dpid with per-switch insertion order preserved — the drop
    /// state the verifier proves unreachable-from-every-ingress.
    pub fn standing_blocks(&self) -> Vec<(u64, Match)> {
        self.datapaths
            .iter()
            .flat_map(|(d, rec)| rec.blocks.iter().map(|m| (*d, *m)))
            .collect()
    }

    /// The flow key of every standing fast-pass, in its original
    /// direction — the records the verifier's invariant 5 holds every
    /// fast-pass-priority entry to.
    pub fn fastpass_records(&self) -> Vec<FlowKey> {
        self.fastpasses.keys().copied().collect()
    }

    /// Every active flow record: key, service chain, and whether an
    /// attack verdict blocked it.
    pub fn active_records(&self) -> Vec<(FlowKey, Vec<ServiceType>, bool)> {
        self.active
            .iter()
            .map(|(k, r)| (*k, r.chain.clone(), r.block.is_some()))
            .collect()
    }

    /// Per-application traffic totals over completed flows (§IV-C
    /// service-aware statistics), sorted by bytes descending.
    pub fn app_traffic(&self) -> Vec<(String, TrafficTally)> {
        by_bytes(&self.app_traffic)
    }

    /// Per-user traffic totals over completed flows, sorted by bytes
    /// descending.
    pub fn user_traffic(&self) -> Vec<(MacAddr, TrafficTally)> {
        by_bytes(&self.user_traffic)
    }

    /// Exports the network information base at time `now`.
    pub fn nib_snapshot(&self, now: SimTime) -> NibSnapshot {
        NibSnapshot {
            at: now,
            switches: self
                .topo
                .switches()
                .map(|s| (s.dpid, s.n_ports, s.uplink))
                .collect(),
            links: self.topo.links().map(|l| (l.from, l.to)).collect(),
            hosts: self
                .locations
                .iter()
                .map(|(mac, loc)| (*mac, loc.ip, loc.dpid, loc.port))
                .collect(),
            elements: self.locations.elements().copied().collect(),
            active_flows: self
                .active
                .iter()
                .map(|(k, r)| (*k, r.chain.clone(), r.app.clone()))
                .collect(),
            app_traffic: self.app_traffic(),
            user_traffic: self.user_traffic(),
        }
    }

    /// The NIB as pretty JSON — the feed a topology UI polls.
    pub fn nib_json(&self, now: SimTime) -> String {
        serde_json::to_string_pretty(&self.nib_snapshot(now)).unwrap_or_default()
    }

    /// Counters of the flow-setup path: set-ups and the batching
    /// figures.
    pub fn fast_path_stats(&self) -> FastPathStats {
        let mut s = self.tx.stats;
        s.flow_setups = self.flows_installed;
        s
    }

    /// Control-plane health counters: liveness probes, switch
    /// down/up transitions, degraded-mode reports, and the
    /// reconciliation audit figures.
    pub fn health_stats(&self) -> HealthStats {
        let mut h = self.health;
        h.switches_online = self.topo.switch_count() as u64;
        h.switches_known = self.datapaths.len() as u64;
        h
    }

    /// Connection-tracking counters: establishments and closures
    /// reported by firewall elements, SYN floods detected, and the
    /// fast-pass installation/teardown/byte figures.
    pub fn conntrack_stats(&self) -> ConnTrackStats {
        let mut s = self.conntrack;
        s.fastpass_active = self.fastpasses.len() as u64;
        s
    }

    /// Accountability counters: attestations replayed, deviations
    /// confirmed, and quarantines performed (DESIGN.md §11).
    pub fn accountability_stats(&self) -> AccountabilityStats {
        let mut s = self.detector.stats();
        s.quarantined_now = self.datapaths.values().filter(|r| r.quarantined).count() as u64;
        s.quarantine_gate_drops = self.quarantine_drops;
        s
    }

    /// Switches currently quarantined for forwarding deviations,
    /// ascending.
    pub fn quarantined(&self) -> Vec<u64> {
        self.datapaths
            .iter()
            .filter_map(|(d, rec)| rec.quarantined.then_some(*d))
            .collect()
    }

    fn is_quarantined(&self, dpid: u64) -> bool {
        self.datapaths.get(&dpid).is_some_and(|rec| rec.quarantined)
    }

    /// Lifts a switch's quarantine — the operator decided the switch
    /// is trustworthy again (reimaged, firmware replaced). The switch
    /// re-registers through its ordinary reconnect handshake and gets
    /// a full reconciliation audit on the way in. Returns whether the
    /// switch was quarantined.
    pub fn release_quarantine(&mut self, dpid: u64) -> bool {
        self.datapaths
            .get_mut(&dpid)
            .is_some_and(|rec| std::mem::take(&mut rec.quarantined))
    }
}

impl Default for Controller {
    fn default() -> Self {
        Controller::new()
    }
}

/// The controller *is* a state store: the decision engine reads
/// policy, balancer, locations and topology straight out of the live
/// NIB. A standalone [`crate::store::NetworkState`] offers the same
/// view without a controller (benches, unit tests).
impl crate::store::StateStore for Controller {
    fn decide_policy(&self, key: &FlowKey) -> (PolicyDecision, Option<&str>) {
        let (decision, rule) = self.policy.decide(key);
        (decision.clone(), rule)
    }

    fn pick_element(&mut self, service: ServiceType, key: &FlowKey) -> Option<MacAddr> {
        self.balancer
            .pick(self.locations.online_of(service), service, key)
    }

    fn hop_of(&self, mac: MacAddr) -> Option<Hop> {
        self.locations.hop(mac)
    }

    fn uplink_of(&self, dpid: u64) -> Option<u32> {
        self.topo.uplink_of(dpid)
    }
}

/// The shell between the simulator and the handlers: the only code
/// here that names [`Ctx`], besides `Controller::flush`.
impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(TICK_PERIOD, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TICK {
            return;
        }
        self.tick(ctx.now());
        ctx.set_timer(TICK_PERIOD, TICK);
        self.flush(ctx);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
        // The controller is out-of-band: it has no data-plane ports.
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        // Read in place: a packet-in's packet is not copied out of
        // `bytes`. No switch sends actions, so none are kept.
        let Ok((frame, xid)) = codec::read_frame(bytes, &mut Check) else {
            return;
        };
        if let Some(v) = self.on_message(ctx.now(), peer, frame) {
            let mut reply = ctx.control_buf();
            codec::encode_into(&OfMessage::EchoReply(v), xid, &mut reply);
            ctx.send_control(peer, reply);
        }
        // Transmit everything this event queued, one batch per switch.
        self.flush(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests;
