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

use crate::accountability::{
    flow_sig, AccountabilityDetector, AccountabilityStats, Deviation, PathProof, ProofSource,
};
use crate::balance::{LoadBalancer, SeRegistry};
use crate::cache::DecisionCache;
use crate::directory::DirectoryProxy;
use crate::engine::{self, EngineDecision};
use crate::location::{LearnOutcome, LocationTable};
use crate::monitor::{ConnTrackStats, EventKind, FastPathStats, HealthStats, Monitor};
use crate::policy::{AppAction, PolicyDecision, PolicyDelta, PolicyTable};
use crate::routing::{Hop, SteeringProgram};
use crate::topology::TopologyMap;
use livesec_net::packet::{arp_frame, lldp_frame};
use livesec_net::{
    wire, ArpOp, ArpPacket, DhcpMessage, EtherType, EthernetHeader, FlowKey, HashMap, HashSet,
    Ipv4Header, Ipv4Packet, LldpFrame, MacAddr, Packet, Payload, Transport, UdpDatagram,
};
use livesec_openflow::{
    codec, Action, FlowModCommand, Match, OfMessage, StatsBody, StatsRequestKind,
};
use livesec_services::{SeMessage, ServiceType, Verdict, SE_CONTROL_PORT};
use livesec_sim::{Ctx, Node, NodeId, PortId, SimDuration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Timer token for the controller's housekeeping tick.
const TICK: u64 = 1;
/// Period of the housekeeping tick; the `*_EVERY_TICKS` schedules and
/// [`Controller::set_stats_polling`] count in these.
const TICK_PERIOD: SimDuration = SimDuration::from_millis(100);
/// Every this many ticks, LLDP-probe each registered switch that some
/// peer has not yet heard; a converged topology sends no probes.
const LLDP_EVERY_TICKS: u64 = 5;
/// Echo-probe every registered switch every this many ticks (500 ms).
/// This is the controller's keepalive: once discovery is quiet it is
/// the only traffic a switch is sure to hear, so when a partition
/// starts the switch's controller-timeout clock is at most 5 ticks old.
const ECHO_EVERY_TICKS: u64 = 5;
/// How long a switch's secure channel may stay silent before the
/// controller declares it dead and evicts its state.
const SWITCH_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Audit every online switch's flow table every this many ticks (5 s).
/// Reconnect audits cover faults the liveness timeout noticed; this
/// background sweep bounds how long flow-mods eaten by a *shorter*
/// partition — which neither side ever observes — can keep the tables
/// diverged.
const AUDIT_EVERY_TICKS: u64 = 50;

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

/// Priority of steering/forwarding entries.
pub const STEER_PRIORITY: u16 = 100;
/// Priority of fast-pass entries: wins over steering (the established
/// flow skips its chain) but loses to drop entries (a block always
/// stops the flow, fast-passed or not).
pub const FASTPASS_PRIORITY: u16 = 150;
/// Priority of drop entries (wins over steering).
pub const BLOCK_PRIORITY: u16 = 200;

/// How old a flow's installation must be before a packet-in for it is
/// read as "the switch lost the entries" rather than "this packet
/// raced the just-queued flow-mods". Races resolve within the control
/// channel round-trip (well under a millisecond); anything past this
/// guard means the flow-mods were eaten — e.g. by a partition shorter
/// than the liveness timeout, which neither side ever notices — and
/// the entries must be reinstalled from the flow record.
const REPAIR_GUARD: SimDuration = SimDuration::from_millis(50);

/// Control messages queued for one switch during the current event
/// dispatch; flushed as a single concatenated payload.
#[derive(Debug)]
struct TxBatch {
    node: NodeId,
    buf: Vec<u8>,
    msgs: u64,
    has_flow_mod: bool,
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
    /// than [`REPAIR_GUARD`] past this trigger a reinstall.
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
/// compiled direct-path programs plus the policy/topology epochs they
/// were compiled under. A record whose epochs fall behind the
/// controller's is *stale* — the housekeeping tick tears it down and
/// the reconciliation audit stops defending its entries.
#[derive(Clone, Debug)]
struct FastPassRecord {
    forward: Rc<SteeringProgram>,
    reverse: Rc<SteeringProgram>,
    policy_epoch: u64,
    topo_epoch: u64,
}

impl FastPassRecord {
    /// The fast-pass entries this record puts on switches.
    fn entries(&self, idle: SimDuration) -> impl Iterator<Item = Entry<'_>> {
        Entry::of_programs(&self.forward, &self.reverse, ProofSource::FastPass, idle)
    }
}

/// One flow entry that a flow record, a fast-pass record, a standing
/// block or a denial puts on one switch — the single derivation behind
/// install and repair ([`Entry::add`]), teardown ([`delete_strict`]) and
/// the reconciliation audit's desired state, so what is installed and
/// what is defended cannot disagree. Borrows its actions from the
/// record.
#[derive(Clone, Copy)]
struct Entry<'a> {
    dpid: u64,
    matcher: Match,
    priority: u16,
    actions: &'a [Action],
    cookie: u64,
    notify_removed: bool,
    idle: Option<u64>,
}

impl<'a> Entry<'a> {
    /// Both directions of a compiled program pair, forward first. Each
    /// program's ingress entry carries its direction's cookie and asks
    /// for a removal notification (the idle-out reports the bytes it
    /// carried); mid-path entries carry neither.
    fn of_programs(
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
    /// standing attack block ([`BLOCK_COOKIE`], never expires) or a
    /// policy denial ([`DENY_COOKIE`], idles out).
    fn drop(dpid: u64, matcher: Match, cookie: u64, idle: Option<SimDuration>) -> Entry<'static> {
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
    fn add(&self) -> OfMessage {
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
fn delete_strict(matcher: Match, priority: u16) -> OfMessage {
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
const fn ingress_cookies(source: ProofSource) -> (u64, u64) {
    match source {
        ProofSource::Steering => (INGRESS_COOKIE, REVERSE_COOKIE),
        ProofSource::FastPass => (FASTPASS_COOKIE, FASTPASS_REV_COOKIE),
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
/// at it ([`crate::deploy::CampusBuilder`] does all three). Eleven
/// values are settable, each through one `set_*` method that documents
/// its default; everything else that paces the controller is a
/// constant of this module.
pub struct Controller {
    xid: u32,
    topo: TopologyMap,
    locations: LocationTable,
    registry: SeRegistry,
    policy: PolicyTable,
    balancer: LoadBalancer,
    monitor: Monitor,
    directory: Option<DirectoryProxy>,
    // Ordered: iteration order reaches flow-mod batches, the NIB
    // snapshot and reconciliation, so it is part of the spec
    // (DESIGN.md §6).
    active: BTreeMap<FlowKey, FlowRecord>,
    required_certs: Option<BTreeSet<u64>>,
    /// The flow-setup decision caches, one slot per controller shard
    /// (DESIGN.md §9): a plain controller is the one-shard case, and a
    /// dead shard or a disabled cache is an empty slot. Whatever can
    /// stale a memoized decision is applied to every slot where it
    /// happens — `bump_policy_epoch`, `bump_topology_epoch`,
    /// `invalidate_mac`, `invalidate_class`, `set_balancer` — and flow
    /// set-up reads and fills only `caches[active_shard]`.
    caches: Vec<Option<DecisionCache>>,
    /// The slot flow set-up consults; the sharded plane selects it
    /// before each dispatch.
    active_shard: usize,
    /// `(key, ingress dpid, egress dpid)` of the most recent flow
    /// admission — taken by the sharded plane to count flows whose
    /// ingress and egress land on different shards (handoffs).
    last_setup: Option<(FlowKey, u64, u64)>,
    /// Per-switch control messages queued during the current event
    /// dispatch.
    txq: Vec<TxBatch>,
    batches_flushed: u64,
    messages_batched: u64,
    max_batch_len: u64,

    /// Last control message seen per registered switch (liveness).
    switch_liveness: BTreeMap<u64, SimTime>,
    /// Every controller-side peer node ever registered, with its dpid.
    /// Never pruned: `topo.dpid_of_node` forgets deregistered switches,
    /// and a reconnecting peer must still be recognized. Its values are
    /// every datapath id ever registered.
    known_nodes: HashMap<NodeId, u64>,
    /// Standing attack-block drop entries per dpid (insertion order,
    /// deduplicated). Unlike flow records these never expire: a block
    /// outlives the flow it stopped and is reinstalled by audits after
    /// crashes and partitions.
    blocks: BTreeMap<u64, Vec<Match>>,
    /// Switches with a flow-table audit in flight.
    auditing: HashSet<u64>,
    /// Fault-tolerance counters surfaced by `health_stats`.
    health: HealthStats,

    /// Installed established-flow fast-passes, keyed by the flow's
    /// original direction. Ordered: iteration order reaches flow-mod
    /// batches and the reconciliation audit (DESIGN.md §6).
    fastpasses: BTreeMap<FlowKey, FastPassRecord>,
    /// Flows a firewall element has reported established, with the
    /// policy epoch of the report. Survives the fast-pass itself so a
    /// flow whose entries were wiped by a switch restart gets its
    /// fast-pass reinstalled on the next packet-in (the element only
    /// reports each connection's establishment once).
    established_conns: BTreeMap<FlowKey, u64>,
    /// Whether established-flow fast-passes are installed at all.
    fastpass_enabled: bool,
    /// Idle timeout of fast-pass entries.
    fastpass_idle: SimDuration,
    /// Advances whenever the policy table may have changed; fast-pass
    /// records compiled under an older epoch are stale.
    policy_epoch: u64,
    /// Advances whenever the topology may have changed (mirrors the
    /// decision cache's topology epoch).
    topo_epoch: u64,
    /// Connection-tracking counters surfaced by `conntrack_stats`.
    conntrack: ConnTrackStats,

    /// Replays forwarding attestations against controller-issued path
    /// proofs and names deviating switches (DESIGN.md §11).
    detector: AccountabilityDetector,
    /// Switches quarantined for a confirmed forwarding deviation.
    /// Every control message from a quarantined switch is dropped at
    /// the door — including the hello/echo traffic that would
    /// otherwise re-register it — until an operator releases it.
    quarantined: BTreeSet<u64>,
    /// Control messages dropped at the quarantine gate.
    quarantine_drops: u64,

    /// Poll port statistics every this many ticks (0 = never).
    stats_every_ticks: u64,
    arp_timeout: SimDuration,
    se_timeout: SimDuration,
    flow_idle_timeout: SimDuration,
    tick_count: u64,
    last_port_stats: HashMap<(u64, u32), (u64, u64)>,
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
            .field("known_nodes", &self.known_nodes.len())
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
            xid: 1,
            topo: TopologyMap::new(),
            locations: LocationTable::new(),
            registry: SeRegistry::new(),
            policy: PolicyTable::allow_all(),
            balancer: LoadBalancer::min_load(),
            monitor: Monitor::new(),
            directory: None,
            active: BTreeMap::new(),
            required_certs: None,
            caches: vec![Some(DecisionCache::new())],
            active_shard: 0,
            last_setup: None,
            txq: Vec::new(),
            batches_flushed: 0,
            messages_batched: 0,
            max_batch_len: 0,
            switch_liveness: BTreeMap::new(),
            known_nodes: HashMap::default(),
            blocks: BTreeMap::new(),
            auditing: HashSet::default(),
            health: HealthStats::default(),
            fastpasses: BTreeMap::new(),
            established_conns: BTreeMap::new(),
            fastpass_enabled: true,
            fastpass_idle: SimDuration::from_secs(5),
            policy_epoch: 0,
            topo_epoch: 0,
            conntrack: ConnTrackStats::default(),
            detector: AccountabilityDetector::new(),
            quarantined: BTreeSet::new(),
            quarantine_drops: 0,
            stats_every_ticks: 0,
            arp_timeout: SimDuration::from_secs(60),
            se_timeout: SimDuration::from_millis(500),
            flow_idle_timeout: SimDuration::from_secs(2),
            tick_count: 0,
            last_port_stats: HashMap::default(),
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

    /// The host routing table.
    pub fn locations(&self) -> &LocationTable {
        &self.locations
    }

    /// The topology map.
    pub fn topology(&self) -> &TopologyMap {
        &self.topo
    }

    /// The service-element registry.
    pub fn registry(&self) -> &SeRegistry {
        &self.registry
    }

    /// The policy table.
    pub fn policy(&self) -> &PolicyTable {
        &self.policy
    }

    /// Replaces the policy table (default: allow everything).
    /// Invalidates every cached flow-setup decision.
    pub fn set_policy(&mut self, policy: PolicyTable) {
        self.bump_policy_epoch();
        self.policy = policy;
    }

    /// Applies a batch of scoped policy edits — the delta path
    /// (DESIGN.md §14).
    ///
    /// Unlike [`Controller::set_policy`], which conservatively stales
    /// every cached decision and fast-pass, this computes the header
    /// classes the deltas actually touch and invalidates only those:
    /// decision-cache entries inside a touched cube are dropped (on
    /// every shard), fast-passes and established-connection reports
    /// whose flow falls in a cube are torn down, and
    /// everything else is re-stamped to the new policy epoch and
    /// survives warm. Active flow records are left alone either way —
    /// their entries idle out and the next packet-in re-decides, just
    /// as after a wholesale edit.
    ///
    /// Returns the touched header-space cubes in delta order; callers
    /// hand these to `livesec_verify::audit_delta` to verify the edit
    /// incrementally.
    pub fn apply_policy_delta(&mut self, now: SimTime, deltas: &[PolicyDelta]) -> Vec<Match> {
        if deltas.is_empty() {
            return Vec::new();
        }
        let mut cubes: Vec<Match> = Vec::new();
        let (mut adds, mut removes, mut replaces) = (0u64, 0u64, 0u64);
        for delta in deltas {
            // Touched classes come from the table state *before* the
            // delta applies: a removed rule's old cube is exactly
            // what stops mattering.
            match delta {
                PolicyDelta::Insert { rule, .. } => cubes.push(rule.matcher()),
                PolicyDelta::Remove { name } => {
                    if let Some(old) = self.policy.get(name) {
                        cubes.push(old.matcher());
                    }
                }
                PolicyDelta::Replace { rule } => {
                    if let Some(old) = self.policy.get(&rule.name) {
                        let old_cube = old.matcher();
                        if old_cube != rule.matcher() {
                            cubes.push(old_cube);
                        }
                    }
                    cubes.push(rule.matcher());
                }
                PolicyDelta::SetDefault { .. } => cubes.push(Match::any()),
                PolicyDelta::SetAppAction { .. } => {}
            }
            if self.policy.apply_delta(delta) {
                match delta {
                    PolicyDelta::Insert { .. } => adds += 1,
                    PolicyDelta::Remove { .. } => removes += 1,
                    PolicyDelta::Replace { .. } => replaces += 1,
                    PolicyDelta::SetDefault { .. } | PolicyDelta::SetAppAction { .. } => {}
                }
            }
        }
        // Scoped epoch advance: the policy epoch moves (fast-pass
        // records and established reports are epoch-stamped) but the
        // caches' own epochs do not — only entries inside a touched
        // cube are dropped.
        self.policy_epoch += 1;
        let pe = self.policy_epoch;
        for &cube in &cubes {
            self.invalidate_class(cube);
        }
        let touched = |cubes: &[Match], key: &FlowKey| {
            let fwd = Match::exact_any_port(key);
            let rev = Match::exact_any_port(&key.reversed());
            cubes.iter().any(|c| c.overlaps(&fwd) || c.overlaps(&rev))
        };
        let fastpass_keys: Vec<FlowKey> = self.fastpasses.keys().copied().collect();
        for key in fastpass_keys {
            if touched(&cubes, &key) {
                self.remove_fastpass(&key);
            } else if let Some(rec) = self.fastpasses.get_mut(&key) {
                // An untouched fast-pass stays valid under the new
                // epoch; without the re-stamp the housekeeping sweep
                // would tear it down as stale.
                rec.policy_epoch = pe;
            }
        }
        self.established_conns.retain(|key, epoch| {
            if touched(&cubes, key) {
                return false;
            }
            *epoch = pe;
            true
        });
        self.monitor.record(
            now,
            EventKind::PolicyDeltaApplied {
                adds,
                removes,
                replaces,
                classes: cubes.len() as u64,
            },
        );
        cubes
    }

    /// Records that the policy table may have changed *wholesale*:
    /// advances every decision cache's policy epoch and stales every
    /// fast-pass (a connection admitted under the old policy may no
    /// longer be allowed to bypass its chain). Scoped edits go
    /// through [`Controller::apply_policy_delta`] instead.
    fn bump_policy_epoch(&mut self) {
        self.policy_epoch += 1;
        for c in self.caches.iter_mut().flatten() {
            c.note_policy_change();
        }
    }

    /// Records that the topology may have changed: advances every
    /// decision cache's topology epoch and stales every fast-pass
    /// (its direct path was compiled through the old topology).
    fn bump_topology_epoch(&mut self) {
        self.topo_epoch += 1;
        for c in self.caches.iter_mut().flatten() {
            c.note_topology_change();
        }
    }

    /// Drops every cached decision touching `mac`, on every shard.
    fn invalidate_mac(&mut self, mac: MacAddr) {
        for c in self.caches.iter_mut().flatten() {
            c.invalidate_mac(mac);
        }
    }

    /// Drops every cached decision inside the header-space `cube`, on
    /// every shard.
    fn invalidate_class(&mut self, cube: Match) {
        for c in self.caches.iter_mut().flatten() {
            c.invalidate_class(&cube);
        }
    }

    /// Re-cuts the decision cache into `n` fresh per-shard slots
    /// (empty ones if caching is disabled) — the sharded plane, once,
    /// when it wraps the controller.
    pub(crate) fn split_caches(&mut self, n: usize) {
        let enabled = self.decision_cache_enabled();
        self.caches = (0..n).map(|_| enabled.then(DecisionCache::new)).collect();
    }

    /// Makes `shard` the one whose cache flow set-up consults and whose
    /// id the monitor stamps on events.
    pub(crate) fn select_shard(&mut self, shard: u32) {
        self.active_shard = shard as usize;
        self.monitor.set_shard(shard);
    }

    /// A dead shard's cache dies with it; no dispatch selects the
    /// shard again.
    pub(crate) fn drop_shard_cache(&mut self, shard: u32) {
        if let Some(slot) = self.caches.get_mut(shard as usize) {
            *slot = None;
        }
    }

    /// Each shard's decision-cache counters, in shard order (`None`
    /// for an empty slot).
    pub(crate) fn shard_cache_stats(&self) -> impl Iterator<Item = Option<FastPathStats>> + '_ {
        self.caches
            .iter()
            .map(|slot| slot.as_ref().map(DecisionCache::stats))
    }

    /// The dpid a controller-side peer registered with, if it finished
    /// the features handshake at some point (never pruned).
    pub(crate) fn dpid_of_peer(&self, peer: NodeId) -> Option<u64> {
        self.known_nodes.get(&peer).copied()
    }

    /// Mutable access to the monitor (the plane stamps shard ids).
    pub(crate) fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// Takes the `(key, ingress dpid, egress dpid)` of the flow
    /// admitted during the current dispatch, if any.
    pub(crate) fn take_last_setup(&mut self) -> Option<(FlowKey, u64, u64)> {
        self.last_setup.take()
    }

    /// Replaces the load balancer (default: minimum-load at flow
    /// grain). Drops every decision cache's contents: cached picks
    /// came from the old algorithm.
    pub fn set_balancer(&mut self, balancer: LoadBalancer) {
        for c in self.caches.iter_mut().flatten() {
            c.clear();
        }
        self.balancer = balancer;
    }

    /// Enables or disables the flow-setup decision cache (default:
    /// enabled), on every shard. The cache is transparent — disabling
    /// it changes throughput, never behaviour. Disabling drops all
    /// cached decisions (a re-enabled cache starts its counters at
    /// zero).
    pub fn set_decision_cache(&mut self, enabled: bool) {
        if enabled != self.decision_cache_enabled() {
            for slot in &mut self.caches {
                *slot = enabled.then(DecisionCache::new);
            }
        }
    }

    /// Whether the flow-setup decision cache is enabled.
    pub fn decision_cache_enabled(&self) -> bool {
        self.caches.iter().any(Option::is_some)
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
            let keys: Vec<FlowKey> = self.fastpasses.keys().copied().collect();
            for key in keys {
                self.conntrack.fastpass_invalidated += 1;
                self.remove_fastpass(&key);
            }
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

    /// The current `(policy_epoch, topology_epoch)` pair. Fast-pass
    /// entries compiled under older epochs are stale and must be gone
    /// (or on their way out) — the verifier's invariant 5.
    pub fn epochs(&self) -> (u64, u64) {
        (self.policy_epoch, self.topo_epoch)
    }

    /// The standing block registry as `(dpid, matcher)` pairs, sorted
    /// by dpid with per-switch insertion order preserved — the drop
    /// state the verifier proves unreachable-from-every-ingress.
    pub fn standing_blocks(&self) -> Vec<(u64, Match)> {
        self.blocks
            .iter()
            .flat_map(|(d, ms)| ms.iter().map(|m| (*d, *m)))
            .collect()
    }

    /// Every installed fast-pass: the flow key plus the policy and
    /// topology epochs its direct path was compiled under.
    pub fn fastpass_records(&self) -> Vec<(FlowKey, u64, u64)> {
        self.fastpasses
            .iter()
            .map(|(k, r)| (*k, r.policy_epoch, r.topo_epoch))
            .collect()
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
        let mut v: Vec<(String, TrafficTally)> = self
            .app_traffic
            .iter()
            .map(|(k, t)| (k.clone(), *t))
            .collect();
        v.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        v
    }

    /// Per-user traffic totals over completed flows, sorted by bytes
    /// descending.
    pub fn user_traffic(&self) -> Vec<(MacAddr, TrafficTally)> {
        let mut v: Vec<(MacAddr, TrafficTally)> =
            self.user_traffic.iter().map(|(k, t)| (*k, *t)).collect();
        v.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        v
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
            elements: self.registry.all(),
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

    /// Counters of the flow-setup fast path: cache hits, misses,
    /// invalidations (summed over the shards' caches), and the batching
    /// figures.
    pub fn fast_path_stats(&self) -> FastPathStats {
        let mut s = FastPathStats::default();
        for c in self.shard_cache_stats().flatten() {
            s.hits += c.hits;
            s.misses += c.misses;
            s.invalidations += c.invalidations;
            s.insertions += c.insertions;
            s.entries += c.entries;
        }
        s.flow_setups = self.flows_installed;
        s.batches_flushed = self.batches_flushed;
        s.messages_batched = self.messages_batched;
        s.max_batch_len = self.max_batch_len;
        s
    }

    /// Control-plane health counters: liveness probes, switch
    /// down/up transitions, degraded-mode reports, and the
    /// reconciliation audit figures.
    pub fn health_stats(&self) -> HealthStats {
        let mut h = self.health;
        h.switches_online = self.topo.switch_count() as u64;
        let known: BTreeSet<u64> = self.known_nodes.values().copied().collect();
        h.switches_known = known.len() as u64;
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
        s.quarantined_now = self.quarantined.len() as u64;
        s.quarantine_gate_drops = self.quarantine_drops;
        s
    }

    /// The accountability detector (test observability).
    pub fn detector(&self) -> &AccountabilityDetector {
        &self.detector
    }

    /// Switches currently quarantined for forwarding deviations,
    /// ascending.
    pub fn quarantined(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    /// Lifts a switch's quarantine — the operator decided the switch
    /// is trustworthy again (reimaged, firmware replaced). The switch
    /// re-registers through its ordinary reconnect handshake and gets
    /// a full reconciliation audit on the way in. Returns whether the
    /// switch was quarantined.
    pub fn release_quarantine(&mut self, dpid: u64) -> bool {
        self.quarantined.remove(&dpid)
    }

    /// Quarantines a switch convicted of a forwarding deviation: its
    /// flow table is flushed (a fail-secure switch with an empty table
    /// forwards nothing), it is deregistered through the dead-switch
    /// path — hosts evicted, orphan flows dropped, mid-path entries
    /// cleaned up, topology epoch bumped so no cached decision routes
    /// through it — and every further control message from it is
    /// dropped at the door so it cannot re-register until released.
    fn quarantine_switch(&mut self, now: SimTime, dpid: u64) {
        if self.quarantined.contains(&dpid) || self.topo.switch(dpid).is_none() {
            return;
        }
        self.detector.note_quarantine();
        // Queue the flush while the dpid still resolves to a channel;
        // the batch is transmitted by the dispatch-level flush after
        // deregistration below.
        self.send_to_dpid(dpid, &OfMessage::delete_flows(Match::any()));
        self.quarantined.insert(dpid);
        self.mark_switch_down(now, dpid);
    }

    /// Records a confirmed deviation and quarantines the convicted
    /// switch.
    fn punish(&mut self, now: SimTime, dev: Deviation) {
        self.monitor.record(
            now,
            EventKind::PathProofViolated {
                flow: dev.flow,
                at_dpid: dev.dpid,
                deviation: dev.kind,
                expected: dev.expected,
                observed: dev.observed,
            },
        );
        if self.quarantined.contains(&dev.dpid) {
            return;
        }
        self.monitor.record(
            now,
            EventKind::SwitchDeviating {
                dpid: dev.dpid,
                deviation: dev.kind,
            },
        );
        self.quarantine_switch(now, dev.dpid);
    }

    /// Registers the path proofs of one flow's program pair under its
    /// rewrite-invariant signatures (forward and reverse direction).
    fn register_proofs(
        &mut self,
        now: SimTime,
        key: &FlowKey,
        forward: &SteeringProgram,
        reverse: &SteeringProgram,
        source: ProofSource,
    ) {
        let (fwd_cookie, rev_cookie) = ingress_cookies(source);
        self.detector.register(
            flow_sig(key),
            PathProof::of_program(forward, fwd_cookie, source, now),
        );
        self.detector.register(
            flow_sig(&key.reversed()),
            PathProof::of_program(reverse, rev_cookie, source, now),
        );
    }

    /// Retires both directions' proofs of `key` from `source`.
    fn retire_proofs(&mut self, key: &FlowKey, source: Option<ProofSource>) {
        self.detector.retire(flow_sig(key), source);
        self.detector.retire(flow_sig(&key.reversed()), source);
    }

    /// Takes `key`'s record off the books: its proofs from `source`
    /// retire and its elements each lose an outstanding flow. What
    /// happens to its switch entries is the caller's business.
    fn retire_flow(&mut self, key: &FlowKey, source: Option<ProofSource>) -> Option<FlowRecord> {
        let rec = self.active.remove(key)?;
        self.retire_proofs(key, source);
        for mac in &rec.elements {
            self.registry.adjust_outstanding(*mac, -1);
        }
        Some(rec)
    }

    /// The flow entries the controller believes `dpid` should hold, as
    /// `(matcher, priority, cookie)` — what the reconciliation audit
    /// enforces. Exposed so tests can compare against the switch's
    /// actual table.
    pub fn desired_entries(&self, dpid: u64) -> Vec<(Match, u16, u64)> {
        let mut v: Vec<(Match, u16, u64)> = self
            .desired_for(dpid)
            .map(|e| (e.matcher, e.priority, e.cookie))
            .collect();
        v.sort_by_key(|a| (a.1, a.0.to_string()));
        v
    }

    /// The desired flow-table state of one switch: the entries every
    /// active flow record and every *current* fast-pass record puts
    /// there, then its standing blocks.
    fn desired_for(&self, dpid: u64) -> impl Iterator<Item = Entry<'_>> {
        let flows = self
            .active
            .values()
            .flat_map(|rec| rec.entries(self.flow_idle_timeout));
        // A fast-pass record whose epochs fell behind is about to be
        // torn down by the housekeeping tick; defending its entries
        // here would race that teardown.
        let fastpasses = self
            .fastpasses
            .values()
            .filter(|rec| (rec.policy_epoch, rec.topo_epoch) == self.epochs())
            .flat_map(|rec| rec.entries(self.fastpass_idle));
        // Blocks come from the standing registry, not the records: a
        // blocked flow's record retires once its (shadowed) steering
        // entries idle out, but the drop rule is security state that
        // must survive that — and survive switch restarts.
        let blocks = self.blocks.get(&dpid).into_iter().flatten();
        flows
            .chain(fastpasses)
            .filter(move |e| e.dpid == dpid)
            .chain(blocks.map(move |m| Entry::drop(dpid, *m, BLOCK_COOKIE, None)))
    }

    /// Queues `msg` for `node`; everything queued during one event
    /// dispatch goes out as a single per-switch payload (see
    /// [`Controller::flush`]).
    fn send(&mut self, node: NodeId, msg: &OfMessage) {
        let xid = self.xid;
        self.xid = self.xid.wrapping_add(1);
        let bytes = codec::encode(msg, xid);
        let is_flow_mod = matches!(msg, OfMessage::FlowMod { .. });
        self.messages_batched += 1;
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
            self.batches_flushed += 1;
            self.max_batch_len = self.max_batch_len.max(batch.msgs);
            ctx.send_control(batch.node, batch.buf);
        }
    }

    fn send_to_dpid(&mut self, dpid: u64, msg: &OfMessage) {
        if let Some(node) = self.topo.switch(dpid).map(|s| s.node) {
            self.send(node, msg);
        }
    }

    /// Queues `msg` for every registered switch, in dpid order.
    fn send_to_all(&mut self, msg: &OfMessage) {
        let nodes: Vec<NodeId> = self.topo.switches().map(|s| s.node).collect();
        for node in nodes {
            self.send(node, msg);
        }
    }

    /// Queues the flow-mod installing each of `entries`. They borrow
    /// from a record the caller holds, never from `self`.
    fn install<'a>(&mut self, entries: impl IntoIterator<Item = Entry<'a>>) {
        for e in entries {
            self.send_to_dpid(e.dpid, &e.add());
        }
    }

    /// Queues the strict delete of each of `entries` — the inverse of
    /// [`Controller::install`].
    fn uninstall<'a>(&mut self, entries: impl IntoIterator<Item = Entry<'a>>) {
        for e in entries {
            self.send_to_dpid(e.dpid, &delete_strict(e.matcher, e.priority));
        }
    }

    fn packet_out(&mut self, dpid: u64, in_port: Option<u32>, actions: Vec<Action>, pkt: &Packet) {
        let msg = OfMessage::PacketOut {
            in_port,
            actions,
            data: wire::serialize(pkt),
        };
        self.send_to_dpid(dpid, &msg);
    }

    /// Emits a controller-made frame out of one port of a switch.
    fn emit(&mut self, dpid: u64, port: u32, pkt: &Packet) {
        let out = Action::Output(livesec_openflow::OutPort::Physical(port));
        self.packet_out(dpid, None, vec![out], pkt);
    }

    fn probe_switch(&mut self, dpid: u64) {
        let Some(info) = self.topo.switch(dpid).copied() else {
            return;
        };
        // Once the uplink is known, only probe it; before that, sweep
        // every port to find it.
        let ports = match info.uplink {
            Some(p) => p..=p,
            None => 1..=info.n_ports,
        };
        // Locally-administered source MAC derived from the dpid.
        let src = MacAddr::from_u64(0x0260_0000_0000 | (dpid & 0xffff_ffff));
        for p in ports {
            self.emit(dpid, p, &lldp_frame(src, LldpFrame::new(dpid, p)));
        }
    }

    /// One LLDP round: probes every switch some peer has not yet heard,
    /// or, when `full`, every switch.
    fn probe_round(&mut self, full: bool) {
        let n = self.topo.switch_count();
        for dpid in self.dpids() {
            if full || self.topo.heard_by(dpid) + 1 < n {
                self.probe_switch(dpid);
            }
        }
    }

    /// The registered switches' datapath ids, ascending.
    fn dpids(&self) -> Vec<u64> {
        self.topo.switches().map(|s| s.dpid).collect()
    }

    fn handle_arp(&mut self, ctx: &mut Ctx<'_>, dpid: u64, in_port: u32, arp: ArpPacket) {
        if Some(in_port) == self.topo.uplink_of(dpid) {
            return; // an announcement echoed through the legacy fabric
        }
        let now = ctx.now();
        match self.locations.learn(arp.sha, arp.spa, dpid, in_port, now) {
            LearnOutcome::New => {
                self.monitor.record(
                    now,
                    EventKind::UserJoin {
                        mac: arp.sha,
                        ip: arp.spa,
                        at: (dpid, in_port),
                    },
                );
                self.announce_location(dpid, arp.sha, arp.spa);
            }
            LearnOutcome::Moved { from } => {
                // Steering programs bake in the host's old attachment
                // point: drop every cached decision touching it.
                self.invalidate_mac(arp.sha);
                self.monitor.record(
                    now,
                    EventKind::UserMoved {
                        mac: arp.sha,
                        from,
                        to: (dpid, in_port),
                    },
                );
                self.announce_location(dpid, arp.sha, arp.spa);
            }
            LearnOutcome::Refreshed => {}
        }
        if arp.op == ArpOp::Request && !arp.is_gratuitous() {
            // Directory proxy: answer centrally instead of flooding.
            if let Some((mac, _)) = self.locations.lookup_ip(arp.tpa) {
                let reply = ArpPacket {
                    op: ArpOp::Reply,
                    sha: mac,
                    spa: arp.tpa,
                    tha: arp.sha,
                    tpa: arp.spa,
                };
                self.arp_replies += 1;
                self.emit(dpid, in_port, &arp_frame(reply));
            }
        }
    }

    /// Teaches the legacy fabric where a newly-learned host lives by
    /// re-emitting its gratuitous ARP through the ingress switch's
    /// uplink (PortLand-style location announcement). Without this the
    /// first cross-switch frame toward the host would flood.
    fn announce_location(&mut self, dpid: u64, mac: MacAddr, ip: Ipv4Addr) {
        if let Some(up) = self.topo.uplink_of(dpid) {
            self.emit(dpid, up, &arp_frame(ArpPacket::gratuitous(mac, ip)));
        }
    }

    fn cert_ok(&mut self, msg: &SeMessage) -> bool {
        let Some(required) = &self.required_certs else {
            return true;
        };
        let cert = match msg {
            SeMessage::Online { cert, .. } | SeMessage::Event { cert, .. } => *cert,
        };
        if required.contains(&cert) {
            true
        } else {
            self.rejected_se_msgs += 1;
            false
        }
    }

    fn handle_se_message(&mut self, ctx: &mut Ctx<'_>, src_mac: MacAddr, msg: SeMessage) {
        if !self.cert_ok(&msg) {
            return;
        }
        self.se_msgs += 1;
        let now = ctx.now();
        self.locations.touch(src_mac, now);
        match msg {
            SeMessage::Online {
                service,
                cpu,
                pps,
                bps,
                ..
            } => {
                let was_new = self.registry.heartbeat(src_mac, &msg, now);
                if was_new {
                    self.monitor.record(
                        now,
                        EventKind::SeOnline {
                            mac: src_mac,
                            service,
                        },
                    );
                }
                self.monitor.record(
                    now,
                    EventKind::SeLoad {
                        mac: src_mac,
                        cpu,
                        pps,
                        bps,
                    },
                );
            }
            SeMessage::Event { flow, verdict, .. } => {
                // The element saw the flow mid-path, where steering has
                // rewritten the MACs (dl_dst points at the element
                // itself); recover the original flow identity from the
                // active-flow table before acting on the report.
                let flow = self.canonical_key(&flow);
                self.dispatch_verdict(ctx, src_mac, flow, verdict);
            }
        }
    }

    /// Maps an SE-reported flow key (possibly carrying rewritten MACs)
    /// back to the originally-admitted key by matching the
    /// MAC-independent fields against the active flows.
    fn canonical_key(&self, reported: &FlowKey) -> FlowKey {
        if self.active.contains_key(reported) {
            return *reported;
        }
        self.active
            .keys()
            .find(|k| {
                k.vlan == reported.vlan
                    && k.nw_src == reported.nw_src
                    && k.nw_dst == reported.nw_dst
                    && k.nw_proto == reported.nw_proto
                    && k.tp_src == reported.tp_src
                    && k.tp_dst == reported.tp_dst
            })
            .copied()
            .unwrap_or(*reported)
    }

    fn dispatch_verdict(
        &mut self,
        ctx: &mut Ctx<'_>,
        src_mac: MacAddr,
        flow: FlowKey,
        verdict: Verdict,
    ) {
        let now = ctx.now();
        match verdict {
            Verdict::Malicious { attack, severity } => {
                self.monitor.record(
                    now,
                    EventKind::AttackDetected {
                        flow,
                        attack: attack.clone(),
                        severity,
                        element: src_mac,
                    },
                );
                if attack.starts_with("syn-flood") {
                    // A flood rotates source ports, so the per-key
                    // block below would stop only one probe: drop
                    // everything from the source at its ingress.
                    self.conntrack.syn_floods += 1;
                    self.monitor.record(
                        now,
                        EventKind::SynFloodDetected {
                            src: flow.nw_src,
                            attack: attack.clone(),
                        },
                    );
                    self.block_source(flow.dl_src);
                }
                self.block_flow(ctx, &flow, format!("attack:{attack}"));
            }
            Verdict::Application { app } => {
                if let Some(rec) = self.active.get_mut(&flow) {
                    rec.app = Some(app.clone());
                }
                self.monitor.record(
                    now,
                    EventKind::AppIdentified {
                        flow,
                        app: app.clone(),
                    },
                );
                if self.policy.app_action(&app) == Some(AppAction::Block) {
                    self.block_flow(ctx, &flow, format!("app-policy:{app}"));
                }
            }
            Verdict::PolicyViolation { policy } => {
                self.block_flow(ctx, &flow, format!("policy:{policy}"));
            }
            Verdict::ConnEstablished => {
                self.conntrack.established += 1;
                self.monitor
                    .record(now, EventKind::ConnEstablished { flow });
                self.established_conns.insert(flow, self.policy_epoch);
                self.install_fastpass(now, flow);
            }
            Verdict::ConnClosed => {
                self.conntrack.closed += 1;
                self.monitor.record(now, EventKind::ConnClosed { flow });
                self.established_conns.remove(&flow);
                self.remove_fastpass(&flow);
            }
        }
    }

    /// Installs a bidirectional direct-path fast-pass for an
    /// established flow: two 2-hop steering programs (no service
    /// hops, no MAC rewrites) above steering priority, so subsequent
    /// packets of the connection bypass the service-element hairpin.
    fn install_fastpass(&mut self, now: SimTime, key: FlowKey) {
        if !self.fastpass_enabled || self.fastpasses.contains_key(&key) {
            return;
        }
        // The engine's compile stage over an empty chain, one priority
        // up: no service hops, no MAC rewrites.
        let direct = engine::compile(self, &key, Vec::new(), Vec::new(), FASTPASS_PRIORITY);
        let EngineDecision::Steer {
            forward, reverse, ..
        } = direct
        else {
            return; // an end unlocated or an uplink undiscovered
        };
        let rec = FastPassRecord {
            forward,
            reverse,
            policy_epoch: self.policy_epoch,
            topo_epoch: self.topo_epoch,
        };
        self.put_fastpass(now, &key, &rec);
        self.fastpasses.insert(key, rec);
        self.conntrack.fastpass_installed += 1;
        self.monitor
            .record(now, EventKind::FastPassInstalled { flow: key });
    }

    /// Puts a fast-pass record's entries on the switches and registers
    /// its proofs — the first installation and the repair alike. (The
    /// ingress entries report their removal, so their idle-out reports
    /// the bytes that took the fast path.)
    fn put_fastpass(&mut self, now: SimTime, key: &FlowKey, rec: &FastPassRecord) {
        self.install(rec.entries(self.fastpass_idle));
        self.register_proofs(now, key, &rec.forward, &rec.reverse, ProofSource::FastPass);
    }

    /// Tears down a fast-pass: deletes both directions' entries and
    /// drops the record. Idempotent — the switch's FlowRemoved
    /// notification for an entry this very teardown deletes re-enters
    /// here and finds the record already gone.
    fn remove_fastpass(&mut self, key: &FlowKey) {
        let Some(rec) = self.fastpasses.remove(key) else {
            return;
        };
        self.retire_proofs(key, Some(ProofSource::FastPass));
        self.uninstall(rec.entries(self.fastpass_idle));
        self.conntrack.fastpass_removed += 1;
    }

    /// Installs a standing drop at `dpid` and enters it in the block
    /// registry, so audits reinstall it after crashes and partitions.
    fn block(&mut self, dpid: u64, matcher: Match) {
        self.install([Entry::drop(dpid, matcher, BLOCK_COOKIE, None)]);
        let standing = self.blocks.entry(dpid).or_default();
        if !standing.contains(&matcher) {
            standing.push(matcher);
        }
    }

    /// Installs a source-wide drop at a host's ingress switch — the
    /// response to a SYN flood, whose probes rotate source ports
    /// faster than per-flow blocks could chase them.
    fn block_source(&mut self, mac: MacAddr) {
        if let Some(loc) = self.locations.lookup(mac).copied() {
            self.block(loc.dpid, Match::any().with_dl_src(mac));
        }
    }

    /// Installs a drop entry for `key` at its ingress switch — the
    /// paper's interactive enforcement response (§IV-A): the flow is
    /// blocked at the entrance, protecting the inner network.
    fn block_flow(&mut self, ctx: &mut Ctx<'_>, key: &FlowKey, reason: String) {
        let Some(loc) = self.locations.lookup(key.dl_src).copied() else {
            return;
        };
        let matcher = Match::exact(loc.port, key);
        self.block(loc.dpid, matcher);
        if let Some(rec) = self.active.get_mut(key) {
            rec.block = Some((loc.dpid, matcher));
        }
        self.monitor.record(
            ctx.now(),
            EventKind::FlowBlocked {
                flow: *key,
                reason,
                at_dpid: loc.dpid,
            },
        );
    }

    fn handle_dhcp(&mut self, dpid: u64, in_port: u32, pkt: &Packet) {
        let Some(proxy) = self.directory.as_mut() else {
            return;
        };
        let Some(udp) = pkt.udp() else { return };
        let Some(request) = DhcpMessage::decode(udp.payload.content()) else {
            return;
        };
        let Some(reply) = proxy.handle(&request) else {
            return;
        };
        let frame = Packet::new(
            EthernetHeader::new(
                MacAddr::new([0x02, 0x00, 0x00, 0x00, 0x00, 0x01]),
                request.chaddr,
                EtherType::Ipv4,
            ),
            livesec_net::Body::Ipv4(Ipv4Packet::new(
                Ipv4Header::new(Ipv4Addr::UNSPECIFIED, reply.yiaddr),
                Transport::Udp(UdpDatagram::new(
                    DhcpMessage::SERVER_PORT,
                    DhcpMessage::CLIENT_PORT,
                    Payload::from(reply.encode()),
                )),
            )),
        );
        self.emit(dpid, in_port, &frame);
    }

    /// Reinstalls everything `key`'s record says should be in the
    /// network — both steering programs and the block entry, if any.
    /// Flow-mod `Add`s replace identical (match, priority) entries, so
    /// repairing state that partially survived a fault is harmless.
    fn repair_flow(&mut self, now: SimTime, key: &FlowKey) {
        let Some(rec) = self.active.get_mut(key) else {
            return;
        };
        rec.installed_at = now; // rate-limits repeated repairs
        let forward = Rc::clone(&rec.forward);
        let reverse = Rc::clone(&rec.reverse);
        let block = rec.block;
        self.health.flow_repairs += 1;
        self.install(Entry::of_programs(
            &forward,
            &reverse,
            ProofSource::Steering,
            self.flow_idle_timeout,
        ));
        // Re-registering resets the proof's grace window, so packets
        // already in flight under the pre-fault installation are not
        // mistaken for deviations.
        self.register_proofs(now, key, &forward, &reverse, ProofSource::Steering);
        if let Some((dpid, matcher)) = block {
            self.install([Entry::drop(dpid, matcher, BLOCK_COOKIE, None)]);
        }
        // The connection's fast-pass died with the same fault: bring
        // it back alongside the steering programs (the firewall never
        // re-reports an establishment it already reported).
        if let Some(k) = self.remembered_established(key) {
            match self.fastpasses.get(&k).cloned() {
                Some(fp) if (fp.policy_epoch, fp.topo_epoch) == self.epochs() => {
                    self.put_fastpass(now, &k, &fp);
                }
                Some(_) => {} // stale record; the tick sweep owns it
                None => self.install_fastpass(now, k),
            }
        }
    }

    /// The direction of `key` under which a firewall element reported
    /// the connection established, if the report is from the current
    /// policy epoch (a policy change voids that memory).
    fn remembered_established(&self, key: &FlowKey) -> Option<FlowKey> {
        [*key, key.reversed()]
            .into_iter()
            .find(|k| self.established_conns.get(k) == Some(&self.policy_epoch))
    }

    /// The one flow set-up (DESIGN.md §4c): a packet-in that missed the
    /// flow table either belongs to a session on the books — repair
    /// and release it — or gets one [`EngineDecision`], applied in one
    /// `match`.
    fn handle_flow(&mut self, ctx: &mut Ctx<'_>, dpid: u64, in_port: u32, pkt: &Packet) {
        let Some(key) = FlowKey::of(pkt) else { return };
        let now = ctx.now();
        let at_uplink = Some(in_port) == self.topo.uplink_of(dpid);
        if !at_uplink {
            // Learn or refresh the sender's location from data traffic
            // too.
            if self.locations.lookup(key.dl_src).is_none() {
                self.locations
                    .learn(key.dl_src, key.nw_src, dpid, in_port, now);
                self.monitor.record(
                    now,
                    EventKind::UserJoin {
                        mac: key.dl_src,
                        ip: key.nw_src,
                        at: (dpid, in_port),
                    },
                );
                self.announce_location(dpid, key.dl_src, key.nw_src);
            } else {
                self.locations.touch(key.dl_src, now);
            }
        }

        // A session is on the books under the key of its first packet,
        // and its record holds both directions' programs: a reply is a
        // packet of that session wherever it surfaces, never a new flow
        // under the reversed 5-tuple — deciding it as one would look
        // the policy up with the client's ephemeral port as the service
        // port, and its direct programs would replace the session's
        // chained entries (same match, same priority).
        let session = [key, key.reversed()].into_iter().find_map(|k| {
            let installed_at = self.active.get(&k)?.installed_at;
            Some((k, now.saturating_since(installed_at) > REPAIR_GUARD))
        });
        if let Some((k, repair_due)) = session {
            // Past the guard a packet-in for an active flow means a
            // switch lost the flow's entries — idled out under one
            // direction's silence, or flow-mods eaten by a control-
            // channel fault (including the block entry for blocked
            // flows, whose packets otherwise drop at the switch):
            // reinstall before handling the packet itself.
            if repair_due {
                self.repair_flow(now, &k);
            }
            // Mid-path packets are only ever repaired; a packet at an
            // access port raced ahead of the flow-mods (or triggered
            // the repair) and is released along its direction's
            // already-computed ingress actions.
            let release = self
                .active
                .get(&k)
                .filter(|r| !at_uplink && r.block.is_none());
            if let Some(rec) = release {
                let program = if k == key { &rec.forward } else { &rec.reverse };
                let actions = program.ingress_actions().to_vec();
                self.packet_out(dpid, Some(in_port), actions, pkt);
            }
            return;
        }
        if at_uplink {
            return; // flow set-up only ever happens at the ingress
        }

        match self.decide_flow(&key, (dpid, in_port)) {
            EngineDecision::Deny { rule } => self.deny_flow(now, dpid, in_port, &key, rule),
            EngineDecision::ChainUnavailable { rule } => {
                self.deny_flow(now, dpid, in_port, &key, Some(rule));
            }
            // Discovery not converged or a host unknown: the sender
            // re-ARPs and retries.
            EngineDecision::Unroutable => {}
            EngineDecision::Steer {
                services,
                elements,
                forward,
                reverse,
            } => {
                let rec = FlowRecord {
                    chain: services,
                    elements,
                    ingress_dpid: dpid,
                    forward,
                    reverse,
                    block: None,
                    installed_at: now,
                    app: None,
                    fwd_done: None,
                    rev_done: None,
                };
                self.start_flow(now, in_port, pkt, key, rec);
            }
        }
    }

    /// One decision per set-up, through the active shard's cache. A
    /// hit is revalidated by the engine — the cache is transparent:
    /// every balancer call a cold set-up would make is made on a hit
    /// too, only the policy lookup and the two compile_path runs are
    /// skipped — and a memo the picks moved away from is replaced by
    /// the decision that took its place.
    fn decide_flow(&mut self, key: &FlowKey, ingress: (u64, u32)) -> EngineDecision {
        let shard = self.active_shard;
        let hit = self
            .caches
            .get_mut(shard)
            .and_then(Option::as_mut)
            .and_then(|c| c.lookup(key, ingress));
        let was_hit = hit.is_some();
        let (decision, memo_stands) = match hit {
            Some(cached) => engine::revalidate(self, key, cached),
            None => (engine::decide(self, key), false),
        };
        if !memo_stands {
            if let Some(c) = self.caches.get_mut(shard).and_then(Option::as_mut) {
                if was_hit {
                    c.remove(key);
                }
                if let Some(memo) = decision.memo() {
                    c.insert(*key, ingress, memo);
                }
            }
        }
        decision
    }

    /// Installs a drop entry for a policy-denied flow and records the
    /// denial.
    fn deny_flow(
        &mut self,
        now: SimTime,
        dpid: u64,
        in_port: u32,
        key: &FlowKey,
        rule: Option<String>,
    ) {
        let (matcher, idle) = (Match::exact(in_port, key), self.flow_idle_timeout);
        self.install([Entry::drop(dpid, matcher, DENY_COOKIE, Some(idle))]);
        self.monitor
            .record(now, EventKind::FlowDenied { flow: *key, rule });
    }

    /// Installs an admitted flow's programs, releases the triggering
    /// packet, and books the flow.
    fn start_flow(
        &mut self,
        now: SimTime,
        in_port: u32,
        pkt: &Packet,
        key: FlowKey,
        rec: FlowRecord,
    ) {
        let dpid = rec.ingress_dpid;
        let egress_dpid = rec.forward.entries.last().map_or(dpid, |e| e.dpid);
        self.install(rec.entries(self.flow_idle_timeout));
        self.register_proofs(now, &key, &rec.forward, &rec.reverse, ProofSource::Steering);
        // Release the triggering packet along the new path (the
        // flow-mods were queued first on the same channel, so they are
        // applied before this packet-out).
        let actions = rec.forward.ingress_actions().to_vec();
        self.packet_out(dpid, Some(in_port), actions, pkt);

        for mac in &rec.elements {
            self.registry.adjust_outstanding(*mac, 1);
        }
        self.flows_installed += 1;
        self.last_setup = Some((key, dpid, egress_dpid));
        self.monitor.record(
            now,
            EventKind::FlowStart {
                flow: key,
                chain: rec.chain.clone(),
                elements: rec.elements.clone(),
            },
        );
        self.active.insert(key, rec);
        // A connection the firewall already reported established gets
        // its fast-pass back on this packet-in — the element reports
        // each establishment only once, so a fast-pass lost to a
        // switch restart must be re-derived from the controller's own
        // memory of the report.
        if let Some(k) = self.remembered_established(&key) {
            self.install_fastpass(now, k);
        }
    }

    fn handle_flow_removed(
        &mut self,
        now: SimTime,
        matcher: Match,
        cookie: u64,
        packets: u64,
        bytes: u64,
    ) {
        // Recover the session key: the reverse-ingress entry matches
        // the reply direction, whose reversal is the original key.
        let key = match (cookie, matcher.exact_key()) {
            (INGRESS_COOKIE, Some(k)) => k,
            (REVERSE_COOKIE, Some(k)) => k.reversed(),
            (FASTPASS_COOKIE, Some(k)) => {
                self.conntrack.fastpass_bytes += bytes;
                self.remove_fastpass(&k);
                return;
            }
            (FASTPASS_REV_COOKIE, Some(k)) => {
                self.conntrack.fastpass_bytes += bytes;
                self.remove_fastpass(&k.reversed());
                return;
            }
            _ => return,
        };
        let Some(rec) = self.active.get_mut(&key) else {
            return;
        };
        if cookie == INGRESS_COOKIE {
            rec.fwd_done = Some((packets, bytes));
        } else {
            rec.rev_done = Some((packets, bytes));
        }
        let (Some((fp, fb)), Some((rp, rb))) = (rec.fwd_done, rec.rev_done) else {
            return; // wait for the other direction to idle out
        };
        let Some(rec) = self.retire_flow(&key, Some(ProofSource::Steering)) else {
            return;
        };
        // Service-aware statistics (§IV-C): attribute the session's
        // volume (both directions) to its identified application and
        // to its user.
        let packets = fp + rp;
        let bytes = fb + rb;
        let label = rec.app.unwrap_or_else(|| "unclassified".to_owned());
        let tally = self.app_traffic.entry(label).or_default();
        tally.flows += 1;
        tally.packets += packets;
        tally.bytes += bytes;
        let per_user = self.user_traffic.entry(key.dl_src).or_default();
        per_user.flows += 1;
        per_user.packets += packets;
        per_user.bytes += bytes;
        self.monitor.record(
            now,
            EventKind::FlowEnd {
                flow: key,
                packets,
                bytes,
            },
        );
    }

    /// Removes a dead service element's steering state: its relay
    /// entries everywhere, the ingress entries of flows using it (so
    /// their next packet re-balances), and the active-flow records.
    fn cleanup_se(&mut self, se_mac: MacAddr) {
        self.invalidate_mac(se_mac);
        self.send_to_all(&OfMessage::delete_flows(Match::any().with_dl_dst(se_mac)));
        let affected: Vec<FlowKey> = self
            .active
            .iter()
            .filter(|(_, rec)| rec.elements.contains(&se_mac))
            .map(|(k, _)| *k)
            .collect();
        // `active` is a BTreeMap: `affected` comes out in FlowKey
        // order, so the delete order is run-stable by construction.
        for key in affected {
            if let Some(rec) = self.retire_flow(&key, None) {
                self.send_to_dpid(
                    rec.ingress_dpid,
                    &OfMessage::delete_flows(Match::exact_any_port(&key)),
                );
                self.send_to_all(&OfMessage::delete_flows(Match::exact_any_port(
                    &key.reversed(),
                )));
            }
        }
    }

    /// Records the departure of hosts whose attachment point is gone
    /// (dead switch, dead port): cached decisions through them drop,
    /// and one that was a service element goes offline with its
    /// steering state. `macs` arrive in MAC order (the location table
    /// is a BTreeMap), so the event order is run-stable.
    fn depart(&mut self, now: SimTime, macs: Vec<MacAddr>) {
        for mac in macs {
            self.invalidate_mac(mac);
            self.monitor.record(now, EventKind::UserLeave { mac });
            if self.registry.force_offline(mac) {
                self.monitor.record(now, EventKind::SeOffline { mac });
                self.cleanup_se(mac);
            }
        }
    }

    /// Declares a switch dead after its liveness timeout: its hosts
    /// depart (like SE expiry and port failure), flows entering there
    /// are dropped from the books, its topology state is removed, and
    /// the cache's topology epoch advances so no decision compiled
    /// through it is ever replayed across the outage.
    fn mark_switch_down(&mut self, now: SimTime, dpid: u64) {
        self.health.switch_downs += 1;
        self.monitor.record(now, EventKind::SwitchDown { dpid });
        // A deregistration truncates attestation chains legitimately:
        // silence the drop sweep for a window.
        self.detector.note_turbulence(now);
        self.bump_topology_epoch();
        let evicted = self.locations.evict_dpid(dpid);
        self.depart(now, evicted);
        // Flows that entered at the dead switch lost their ingress; no
        // FlowEnd — their counters died with the switch.
        let orphans: Vec<FlowKey> = self
            .active
            .iter()
            .filter(|(_, rec)| rec.ingress_dpid == dpid)
            .map(|(k, _)| *k)
            .collect();
        // `active` is a BTreeMap: the delete batches below run in
        // FlowKey order, identical run to run.
        for key in orphans {
            if let Some(rec) = self.retire_flow(&key, None) {
                // The programs span other switches; without this, their
                // mid-path entries would linger there as stale state no
                // audit covers (the surviving switches never reconnect,
                // so they are never reconciled). The dead switch's own
                // channel is gone.
                let idle = self.flow_idle_timeout;
                self.uninstall(rec.entries(idle).filter(|e| e.dpid != dpid));
            }
        }
        self.topo.remove_switch(dpid);
        self.switch_liveness.remove(&dpid);
        self.auditing.remove(&dpid);
    }

    /// Starts a flow-table audit of a switch: one full flow-stats
    /// sweep; the reply is reconciled against the desired state in
    /// [`Controller::reconcile`]. The request is re-sent even when an
    /// audit is already marked in flight — the earlier request or its
    /// reply may itself have been lost to the very fault the audit is
    /// meant to repair, and a stuck `auditing` flag must never block
    /// the switch from ever being audited again.
    pub(crate) fn audit_switch(&mut self, dpid: u64) {
        if self.auditing.insert(dpid) {
            self.health.audits += 1;
        }
        self.send_to_dpid(
            dpid,
            &OfMessage::StatsRequest(StatsRequestKind::Flow(Match::any())),
        );
    }

    /// Compares a switch's reported flow table against the desired
    /// state and repairs the delta: stale entries (installed before the
    /// outage for flows since forgotten) are deleted, missing entries
    /// (desired state wiped by a crash) are reinstalled. Deny entries
    /// are skipped — the controller keeps no record of them and they
    /// self-expire.
    fn reconcile(&mut self, now: SimTime, dpid: u64, reported: &[livesec_openflow::FlowStats]) {
        let have: HashSet<(Match, u16)> = reported
            .iter()
            .filter(|s| s.cookie != DENY_COOKIE)
            .map(|s| (s.matcher, s.priority))
            .collect();
        let mut want: HashSet<(Match, u16)> = HashSet::default();
        let mut missing: Vec<(Match, u16, OfMessage)> = Vec::new();
        for e in self.desired_for(dpid) {
            want.insert((e.matcher, e.priority));
            if !have.contains(&(e.matcher, e.priority)) {
                missing.push((e.matcher, e.priority, e.add()));
            }
        }
        // Both sides come out of hash containers; sort the fix lists so
        // the flow-mod order (and any FlowRemoved notifications they
        // trigger) is identical across same-seed runs.
        let mut stale: Vec<(Match, u16)> =
            have.iter().filter(|k| !want.contains(k)).copied().collect();
        stale.sort_by_key(|(m, p)| (*p, m.to_string()));
        missing.sort_by_key(|(m, p, _)| (*p, m.to_string()));
        let (removed, reinstalled) = (stale.len() as u64, missing.len() as u64);
        for (matcher, priority) in stale {
            self.send_to_dpid(dpid, &delete_strict(matcher, priority));
        }
        for (_, _, add) in &missing {
            self.send_to_dpid(dpid, add);
        }
        self.health.flows_removed += removed;
        self.health.flows_reinstalled += reinstalled;
        if removed + reinstalled > 0 {
            // Entries were missing or stale: packets hit the divergence
            // window honestly, so the drop sweep stays quiet.
            self.detector.note_turbulence(now);
            self.health.resyncs += 1;
            self.monitor.record(
                now,
                EventKind::Resync {
                    dpid,
                    removed,
                    reinstalled,
                },
            );
        }
    }

    fn handle_port_status(&mut self, ctx: &mut Ctx<'_>, dpid: u64, port: u32, up: bool) {
        let now = ctx.now();
        self.monitor
            .record(now, EventKind::PortChange { dpid, port, up });
        // The uplink may have moved: a peer's probe arriving on the new
        // port is what re-learns it.
        self.probe_round(true);
        if up {
            return;
        }
        // Compiled programs may have routed through the dead port.
        // Packets in flight through it died honestly: silence the
        // accountability drop sweep for a window.
        self.detector.note_turbulence(now);
        self.bump_topology_epoch();
        let evicted = self.locations.evict_port(dpid, port);
        self.depart(now, evicted);
    }

    fn handle_stats(&mut self, now: SimTime, dpid: u64, body: StatsBody) {
        match body {
            StatsBody::Port(stats) => {
                for s in stats {
                    let prev = self
                        .last_port_stats
                        .insert((dpid, s.port_no), (s.tx_bytes, s.rx_bytes))
                        .unwrap_or((0, 0));
                    self.monitor.record(
                        now,
                        EventKind::LinkLoad {
                            dpid,
                            port: s.port_no,
                            tx_bytes: s.tx_bytes.saturating_sub(prev.0),
                            rx_bytes: s.rx_bytes.saturating_sub(prev.1),
                        },
                    );
                }
            }
            StatsBody::Flow(stats) => {
                if self.auditing.remove(&dpid) {
                    self.reconcile(now, dpid, &stats);
                }
            }
            StatsBody::Description { .. } => {}
        }
    }

    fn handle_packet_in(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, in_port: u32, data: &[u8]) {
        self.packet_ins += 1;
        let Some(dpid) = self.topo.dpid_of_node(peer) else {
            return; // packet-in before the features handshake finished
        };
        let Ok(pkt) = wire::parse(data) else { return };

        if let Some(lldp) = pkt.lldp() {
            let from = (lldp.chassis_id, lldp.port_id);
            let to = (dpid, in_port);
            if from.0 != dpid {
                // observe_lldp can silently re-point a switch's uplink
                // even for an already-known link, so compare before and
                // after rather than trusting its return value alone.
                let uplink_before = self.topo.uplink_of(dpid);
                let new_link = self.topo.observe_lldp(from, to);
                if new_link || self.topo.uplink_of(dpid) != uplink_before {
                    self.bump_topology_epoch();
                }
                if new_link {
                    self.monitor
                        .record(ctx.now(), EventKind::LinkDiscovered { from, to });
                }
            }
            return;
        }
        if let Some(arp) = pkt.arp() {
            let arp = *arp;
            self.handle_arp(ctx, dpid, in_port, arp);
            return;
        }
        if let Some(udp) = pkt.udp() {
            if udp.dst_port == SE_CONTROL_PORT
                && SeMessage::is_control_payload(udp.payload.content())
            {
                if let Some(msg) = SeMessage::decode(udp.payload.content()) {
                    self.handle_se_message(ctx, pkt.eth.src, msg);
                }
                // Never install an entry for the control flow: every
                // message must keep reaching the controller.
                return;
            }
            if udp.dst_port == DhcpMessage::SERVER_PORT {
                self.handle_dhcp(dpid, in_port, &pkt);
                return;
            }
        }
        if pkt.ipv4().is_some() {
            self.handle_flow(ctx, dpid, in_port, &pkt);
        }
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
    fn decide_policy(&self, key: &FlowKey) -> (PolicyDecision, Option<String>) {
        let (decision, rule) = self.policy.decide(key);
        (decision.clone(), rule.map(str::to_owned))
    }

    fn pick_element(&mut self, service: ServiceType, key: &FlowKey) -> Option<MacAddr> {
        self.balancer.pick(&self.registry, service, key)
    }

    fn hop_of(&self, mac: MacAddr) -> Option<Hop> {
        let loc = self.locations.lookup(mac)?;
        Some(Hop {
            mac,
            dpid: loc.dpid,
            port: loc.port,
        })
    }

    fn uplink_of(&self, dpid: u64) -> Option<u32> {
        self.topo.uplink_of(dpid)
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(TICK_PERIOD, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TICK {
            return;
        }
        self.tick_count += 1;
        let now = ctx.now();

        if self.tick_count % LLDP_EVERY_TICKS == 1 {
            self.probe_round(false);
        }
        if self.tick_count.is_multiple_of(ECHO_EVERY_TICKS) {
            self.health.echo_probes_sent += self.topo.switch_count() as u64;
            self.send_to_all(&OfMessage::EchoRequest(self.tick_count));
        }
        // Liveness sweep: a registered switch silent past the timeout
        // is dead. switch_liveness is a BTreeMap, so the
        // SwitchDown/UserLeave event order is dpid-ascending and
        // run-stable by construction.
        let dead: Vec<u64> = self
            .switch_liveness
            .iter()
            .filter(|(_, last)| now.saturating_since(**last) > SWITCH_TIMEOUT)
            .map(|(dpid, _)| *dpid)
            .collect();
        for dpid in dead {
            self.mark_switch_down(now, dpid);
        }
        // Background reconciliation sweep: catches flow-mods silently
        // eaten by control-channel faults too short for the liveness
        // timeout to notice (no disconnect => no reconnect audit).
        if self.tick_count.is_multiple_of(AUDIT_EVERY_TICKS) {
            for dpid in self.dpids() {
                self.audit_switch(dpid);
            }
        }
        if self.stats_every_ticks > 0 && self.tick_count.is_multiple_of(self.stats_every_ticks) {
            self.send_to_all(&OfMessage::StatsRequest(StatsRequestKind::Port(None)));
        }
        for mac in self.locations.expire(now, self.arp_timeout) {
            self.invalidate_mac(mac);
            self.monitor.record(now, EventKind::UserLeave { mac });
        }
        let dead = self.registry.expire(now, self.se_timeout);
        for mac in dead {
            self.monitor.record(now, EventKind::SeOffline { mac });
            self.cleanup_se(mac);
        }
        // Fast-pass invalidation sweep: records compiled under an
        // older policy or topology epoch are torn down (the flow
        // falls back to its steering program; a fresh establishment
        // report or a repeat packet-in reinstalls it). fastpasses is
        // a BTreeMap, so the teardown order is run-stable.
        let (pe, te) = (self.policy_epoch, self.topo_epoch);
        let stale: Vec<FlowKey> = self
            .fastpasses
            .iter()
            .filter(|(_, r)| r.policy_epoch != pe || r.topo_epoch != te)
            .map(|(k, _)| *k)
            .collect();
        for key in stale {
            self.conntrack.fastpass_invalidated += 1;
            self.remove_fastpass(&key);
        }
        // Establishment memory from before a policy change is void:
        // the connection must be re-verdicted under the new policy.
        self.established_conns.retain(|_, e| *e == pe);
        // Accountability deadline sweep: sampled packets whose
        // attestation chain stalled mid-path past the deadline are
        // dropped packets; the sweep names the first unattested hop.
        for dev in self.detector.sweep(now) {
            self.punish(now, dev);
        }
        ctx.set_timer(TICK_PERIOD, TICK);
        self.flush(ctx);
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {
        // The controller is out-of-band: it has no data-plane ports.
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, bytes: &[u8]) {
        let Ok((msg, xid)) = codec::decode(bytes) else {
            return;
        };
        // Quarantine gate: nothing a convicted switch says is acted on
        // — in particular not the hello/echo traffic that would
        // otherwise walk it through the reconnect handshake and back
        // into the topology.
        if self
            .known_nodes
            .get(&peer)
            .is_some_and(|d| self.quarantined.contains(d))
        {
            self.quarantine_drops += 1;
            return;
        }
        // Any decodable message from a registered switch proves its
        // secure channel is alive.
        if let Some(dpid) = self.topo.dpid_of_node(peer) {
            self.switch_liveness.insert(dpid, ctx.now());
        }
        match msg {
            OfMessage::Hello => {
                // A hello from a switch we already know means it lost
                // the session (crash or degraded-mode reconnect).
                if let Some(&dpid) = self.known_nodes.get(&peer) {
                    self.health.degraded_reports += 1;
                    self.monitor
                        .record(ctx.now(), EventKind::DegradedMode { dpid });
                }
                self.send(peer, &OfMessage::Hello);
                self.send(peer, &OfMessage::FeaturesRequest);
            }
            OfMessage::EchoRequest(v) => {
                ctx.send_control(peer, codec::encode(&OfMessage::EchoReply(v), xid));
                // A keepalive from a switch we deregistered (it never
                // noticed the outage): kick a re-handshake so it
                // re-registers and gets audited.
                if self.topo.dpid_of_node(peer).is_none() && self.known_nodes.contains_key(&peer) {
                    self.send(peer, &OfMessage::FeaturesRequest);
                }
            }
            OfMessage::EchoReply(_) => {
                self.health.echo_replies_seen += 1;
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_ports,
            } => {
                // A peer's self-reported identity is not taken on
                // faith: a datapath id is bound to the channel that
                // first registered it. A reply naming another id (its
                // bytes flipped in flight would register a switch that
                // does not exist) or a live peer's id (which would
                // steal that switch's channel) registers nothing; the
                // real switch re-handshakes off its next echo.
                let bound = self.known_nodes.get(&peer).copied();
                let holder = self.topo.switch(datapath_id).map(|s| s.node);
                if bound.is_some_and(|b| b != datapath_id) || holder.is_some_and(|n| n != peer) {
                    let claimed = datapath_id;
                    self.monitor
                        .record(ctx.now(), EventKind::HandshakeRejected { claimed, bound });
                    return;
                }
                // A known dpid missing from the topology was marked
                // down: `mark_switch_down` is the only deregistration.
                let rejoined = self.known_nodes.values().any(|&d| d == datapath_id);
                let was_new = self.topo.add_switch(datapath_id, peer, n_ports);
                self.known_nodes.insert(peer, datapath_id);
                self.switch_liveness.insert(datapath_id, ctx.now());
                if was_new {
                    self.bump_topology_epoch();
                    if !rejoined {
                        self.monitor
                            .record(ctx.now(), EventKind::SwitchJoin { dpid: datapath_id });
                    }
                }
                if rejoined {
                    if was_new {
                        self.health.switch_ups += 1;
                        self.monitor
                            .record(ctx.now(), EventKind::SwitchUp { dpid: datapath_id });
                    }
                    // The switch's table may have diverged during the
                    // outage (crash wipes it; a partition strands
                    // entries for flows since forgotten): audit it.
                    self.audit_switch(datapath_id);
                }
                self.probe_switch(datapath_id);
            }
            OfMessage::PacketIn { in_port, data, .. } => {
                self.handle_packet_in(ctx, peer, in_port, &data);
            }
            OfMessage::FlowRemoved {
                matcher,
                cookie,
                packet_count,
                byte_count,
                ..
            } => {
                self.handle_flow_removed(ctx.now(), matcher, cookie, packet_count, byte_count);
            }
            OfMessage::PortStatus { reason, port_no } => {
                if let Some(dpid) = self.topo.dpid_of_node(peer) {
                    let up = reason == livesec_openflow::PortStatusReason::Add;
                    self.handle_port_status(ctx, dpid, port_no, up);
                }
            }
            OfMessage::StatsReply(body) => {
                if let Some(dpid) = self.topo.dpid_of_node(peer) {
                    self.handle_stats(ctx.now(), dpid, body);
                }
            }
            OfMessage::Attestation(att) if self.topo.dpid_of_node(peer).is_some() => {
                let now = ctx.now();
                if let Some(dev) = self.detector.observe(now, &att) {
                    self.punish(now, dev);
                }
            }
            _ => {}
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
mod tests {
    use super::*;
    use crate::balance::{Grain, RoundRobin};
    use crate::policy::PolicyRule;
    use livesec_sim::World;
    use proptest::prelude::*;

    const IDS: ServiceType = ServiceType::IntrusionDetection;
    const N_SHARDS: usize = 4;
    const N_HOSTS: u64 = 4;

    fn host(i: u64) -> MacAddr {
        MacAddr::from_u64(0xa0 + i % N_HOSTS)
    }

    fn key(src: u64, dst: u64, tp_dst: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: host(src),
            dl_dst: host(dst),
            dl_type: 0x0800,
            nw_src: Ipv4Addr::new(10, 0, 0, 1 + (src % N_HOSTS) as u8),
            nw_dst: Ipv4Addr::new(10, 0, 0, 1 + (dst % N_HOSTS) as u8),
            nw_proto: 6,
            tp_src: 40_000,
            tp_dst,
        }
    }

    /// Allow-all, with web traffic chained through the IDS and
    /// `denied` destination ports refused ahead of it.
    fn policy(denied: &[u16]) -> PolicyTable {
        let mut table = PolicyTable::allow_all();
        for port in denied {
            table.push(
                PolicyRule::named(&format!("deny-{port}"))
                    .dst_port(*port)
                    .deny(),
            );
        }
        table.push(PolicyRule::named("web-ids").dst_port(80).chain(vec![IDS]));
        table
    }

    /// Three switches, four hosts, two IDS replicas; `shards` decision
    /// caches (none when `cached` is off).
    fn campus(shards: usize, cached: bool) -> Controller {
        let mut c = Controller::new();
        c.set_decision_cache(cached);
        c.split_caches(shards);
        c.set_policy(policy(&[]));
        c.set_balancer(LoadBalancer::new(RoundRobin::new(), Grain::Flow));
        for dpid in 1..=3 {
            c.topo
                .add_switch(dpid, NodeId::from_index(dpid as usize), 48);
            c.topo.observe_lldp((0, 0), (dpid, 40));
        }
        for i in 0..N_HOSTS {
            let ip = Ipv4Addr::new(10, 0, 0, 1 + i as u8);
            c.locations
                .learn(host(i), ip, 1 + i % 3, 10 + i as u32, SimTime::ZERO);
        }
        for (i, se) in [0xf1u64, 0xf2].into_iter().enumerate() {
            let online = SeMessage::Online {
                service: IDS,
                cert: 0,
                cpu: 10,
                mem: 0,
                pps: 0,
                bps: 0,
                total_pkts: 0,
            };
            let mac = MacAddr::from_u64(se);
            c.registry.heartbeat(mac, &online, SimTime::ZERO);
            c.locations.learn(
                mac,
                Ipv4Addr::new(10, 0, 1, se as u8),
                1,
                30 + i as u32,
                SimTime::ZERO,
            );
        }
        c
    }

    /// A control-channel peer that says what the test tells it to:
    /// timer `i` sends a features reply claiming `claims[i]`.
    struct Peer {
        controller: NodeId,
        claims: Vec<u64>,
    }

    impl Node for Peer {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let reply = OfMessage::FeaturesReply {
                datapath_id: self.claims[token as usize],
                n_ports: 4,
            };
            ctx.send_control(self.controller, codec::encode(&reply, 1));
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The phantom switch and the dpid hijack (ROADMAP 4a): a channel
    /// bound to one datapath id cannot register another, nor take an id
    /// a live channel holds — and is not harmed for having tried.
    #[test]
    fn features_reply_cannot_rename_a_channel_or_steal_a_live_id() {
        const FLIPPED: u64 = 1 ^ (0xff << 40);
        let mut world = World::new(1);
        let controller = world.add_node(Controller::new());
        let peer = |claims: &[u64]| Peer {
            controller,
            claims: claims.to_vec(),
        };
        // `a` is switch 1: registers, has its id bytes flipped in
        // flight, then answers the re-handshake genuinely. `b` is
        // switch 2, and then claims to be switch 1.
        let a = world.add_node(peer(&[1, FLIPPED, 1]));
        let b = world.add_node(peer(&[2, 1]));
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        for (node, at, token) in [(a, 1, 0), (b, 1, 0), (a, 10, 1), (b, 20, 1)] {
            world.schedule_timer_at(node, ms(at), token);
        }
        world.run_until(ms(30));

        let c = world.node::<Controller>(controller);
        assert_eq!(c.health_stats().switches_known, 2, "a phantom registered");
        assert_eq!(c.topology().dpid_of_node(a), Some(1));
        assert_eq!(c.topology().dpid_of_node(b), Some(2));
        assert_eq!(c.topology().switch(1).map(|s| s.node), Some(a), "hijacked");
        let rejected: Vec<_> = c
            .monitor()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::HandshakeRejected { claimed, bound } => Some((claimed, bound)),
                _ => None,
            })
            .collect();
        assert_eq!(rejected, [(FLIPPED, Some(1)), (1, Some(2))]);

        // The genuine reply afterwards is a plain re-registration: the
        // switch is audited like any reconnecting one.
        let audits = c.health_stats().audits;
        world.schedule_timer_at(a, ms(40), 2);
        world.run_until(ms(50));
        let c = world.node::<Controller>(controller);
        assert_eq!(c.health_stats().audits, audits + 1);
        assert_eq!(c.health_stats().switches_known, 2);
        assert_eq!(c.monitor().events().len(), 4, "two joins, two rejections");
    }

    proptest! {
        /// N-shard coherence: whatever changes, and whichever shard a
        /// set-up lands on afterwards, a decision served through that
        /// shard's cache equals a from-scratch [`engine::decide`] — the
        /// same operations applied to a cacheless twin. Every change
        /// goes through the controller's own choke point, so one that
        /// forgot a shard would serve that shard's stale memo here.
        #[test]
        fn no_shard_serves_a_stale_decision(
            ops in proptest::collection::vec((0u8..12, any::<u8>()), 1..240)
        ) {
            let now = SimTime::ZERO;
            let mut warm = campus(N_SHARDS, true);
            let mut cold = campus(1, false);
            let mut live: Vec<u32> = (0..N_SHARDS as u32).collect();
            let (mut denied, mut scoped) = (Vec::new(), false);
            for (op, arg) in ops {
                let arg64 = u64::from(arg);
                match op {
                    // Wholesale policy edit: toggle a denied port.
                    6 => {
                        let port = 80 + u16::from(arg % 2);
                        match denied.iter().position(|p| *p == port) {
                            Some(i) => drop(denied.remove(i)),
                            None => denied.push(port),
                        }
                        scoped = false;
                        for ctl in [&mut warm, &mut cold] {
                            ctl.set_policy(policy(&denied));
                        }
                    }
                    // Scoped delta: toggle a denial of port 82.
                    7 => {
                        let delta = if scoped {
                            PolicyDelta::Remove { name: "deny-82".into() }
                        } else {
                            let rule = PolicyRule::named("deny-82").dst_port(82).deny();
                            PolicyDelta::Insert { index: 0, rule }
                        };
                        scoped = !scoped;
                        for ctl in [&mut warm, &mut cold] {
                            ctl.apply_policy_delta(now, std::slice::from_ref(&delta));
                        }
                    }
                    // Topology change: a switch's uplink moves.
                    8 => {
                        for ctl in [&mut warm, &mut cold] {
                            ctl.topo.observe_lldp((0, 0), (1 + arg64 % 3, 40 + u32::from(arg % 4)));
                            ctl.bump_topology_epoch();
                        }
                    }
                    // A host moves (the ARP path's `Moved` arm).
                    9 => {
                        let (mac, ip) = (host(arg64), key(arg64, 0, 0).nw_src);
                        let to = (1 + (arg64 / 4) % 3, 10 + u32::from(arg % 8));
                        for ctl in [&mut warm, &mut cold] {
                            ctl.locations.learn(mac, ip, to.0, to.1, now);
                            ctl.invalidate_mac(mac);
                        }
                    }
                    // Balancer swap: every live shard's cache empties.
                    10 => {
                        for ctl in [&mut warm, &mut cold] {
                            ctl.set_balancer(LoadBalancer::new(RoundRobin::new(), Grain::Flow));
                        }
                        prop_assert_eq!(warm.fast_path_stats().entries, 0);
                    }
                    // A shard dies (never the last one).
                    11 => {
                        if live.len() > 1 {
                            warm.drop_shard_cache(live.remove(arg as usize % live.len()));
                        }
                    }
                    // The same flow set up on every live shard in turn.
                    _ => {
                        let src = arg64 % N_HOSTS;
                        let k = key(src, src + 1, 80 + u16::from(arg >> 2) % 3);
                        let Some(at) = warm.locations.lookup(k.dl_src) else { continue };
                        let ingress = (at.dpid, at.port);
                        for &shard in &live {
                            warm.select_shard(shard);
                            let served = warm.decide_flow(&k, ingress);
                            let fresh = cold.decide_flow(&k, ingress);
                            prop_assert_eq!(format!("{served:?}"), format!("{fresh:?}"));
                        }
                    }
                }
            }
            let dead = warm.shard_cache_stats().filter(Option::is_none).count();
            prop_assert_eq!(dead, N_SHARDS - live.len());
        }
    }
}
