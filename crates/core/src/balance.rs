//! Distributed load balancing over service elements (paper §IV-B).
//!
//! The controller knows every service element's real-time load from
//! its heartbeat messages and dispatches flows (or whole users) over
//! the replicas of each service type. The paper names four dispatching
//! algorithms — polling, hash, queuing, and minimum-load — and two
//! granularities — per-flow and per-user; all are implemented here.

use livesec_net::{FixedState, FlowKey, MacAddr};
use livesec_services::{SeMessage, ServiceType};
use livesec_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The controller's view of one service element.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeView {
    /// The element's MAC address (its identity and steering target).
    pub mac: MacAddr,
    /// Service provided.
    pub service: ServiceType,
    /// CPU utilization percent from the last heartbeat.
    pub cpu: u8,
    /// Memory footprint percent from the last heartbeat.
    pub mem: u8,
    /// Packets processed in the last reporting interval.
    pub pps: u64,
    /// Cumulative packets processed — the paper's §V-B.2 load metric
    /// ("the number of received and processed packets").
    pub total_pkts: u64,
    /// Bits per second processed in the last interval.
    pub bps: u64,
    /// Flows currently assigned by the controller (for queuing-based
    /// dispatch).
    pub outstanding_flows: u32,
    /// Flows assigned since the last heartbeat — the correction term
    /// that keeps minimum-load dispatch from herding onto whichever
    /// element reported the lowest load (its report is stale the
    /// moment the first new flow lands).
    pub recent_assignments: u32,
    /// When the last heartbeat arrived.
    pub last_seen: SimTime,
    /// Whether the element is considered alive.
    pub online: bool,
}

/// A flow-dispatching algorithm over service-element replicas.
///
/// `candidates` is never empty and contains only online elements of
/// the required service type; implementations return an index into it.
pub trait Dispatcher: fmt::Debug + 'static {
    /// Picks a replica for the given flow/user.
    fn pick(&mut self, flow: &FlowKey, user: MacAddr, candidates: &[SeView]) -> usize;

    /// The algorithm's name (for logs and experiment output).
    fn name(&self) -> &'static str;
}

/// Polling (round-robin) dispatch: replicas take turns.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the dispatcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Dispatcher for RoundRobin {
    fn pick(&mut self, _flow: &FlowKey, _user: MacAddr, candidates: &[SeView]) -> usize {
        let i = self.next % candidates.len();
        self.next = self.next.wrapping_add(1);
        i
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Hash dispatch: a stable FNV-1a hash of the flow (or user) pins each
/// key to a replica, giving stickiness without state.
#[derive(Debug, Default)]
pub struct HashDispatch;

impl HashDispatch {
    /// Creates the dispatcher.
    pub fn new() -> Self {
        HashDispatch
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// The stable hash of a flow key used for dispatch.
    pub fn hash_flow(flow: &FlowKey) -> u64 {
        let mut buf = Vec::with_capacity(32);
        buf.extend_from_slice(&flow.nw_src.octets());
        buf.extend_from_slice(&flow.nw_dst.octets());
        buf.push(flow.nw_proto);
        buf.extend_from_slice(&flow.tp_src.to_be_bytes());
        buf.extend_from_slice(&flow.tp_dst.to_be_bytes());
        Self::fnv1a(&buf)
    }
}

impl Dispatcher for HashDispatch {
    fn pick(&mut self, flow: &FlowKey, _user: MacAddr, candidates: &[SeView]) -> usize {
        (Self::hash_flow(flow) % candidates.len() as u64) as usize
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Queuing dispatch: least outstanding assigned flows wins.
#[derive(Debug, Default)]
pub struct LeastQueue;

impl LeastQueue {
    /// Creates the dispatcher.
    pub fn new() -> Self {
        LeastQueue
    }
}

impl Dispatcher for LeastQueue {
    fn pick(&mut self, _flow: &FlowKey, _user: MacAddr, candidates: &[SeView]) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(i, v)| (v.outstanding_flows, *i))
            .map_or(0, |(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "least-queue"
    }
}

/// Minimum-load dispatch: the replica with the fewest processed
/// packets in the last reporting interval wins (the paper's §V-B.2
/// method, judged "according to the number of received and processed
/// packets").
#[derive(Debug, Default)]
pub struct MinLoad;

impl MinLoad {
    /// Creates the dispatcher.
    pub fn new() -> Self {
        MinLoad
    }
}

impl Dispatcher for MinLoad {
    fn pick(&mut self, _flow: &FlowKey, _user: MacAddr, candidates: &[SeView]) -> usize {
        // Balance on *cumulative* processed packets — a deficit
        // counter: each new flow goes to the element that has done the
        // least total work so far, corrected for flows assigned since
        // its last report. Unlike rate-based scores, the deficit form
        // is self-stabilizing: an element that fell behind keeps
        // attracting flows until its counter catches up, so long-run
        // deviation is bounded by a single report window.
        let total_pkts: u64 = candidates.iter().map(|v| v.total_pkts).sum();
        let total_outstanding: u64 = candidates
            .iter()
            .map(|v| u64::from(v.outstanding_flows))
            .sum();
        // Rough cumulative-packets-per-assigned-flow, as the stale-
        // report correction currency.
        let per_flow = (total_pkts as f64 / total_outstanding.max(1) as f64).max(1.0);
        candidates
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| {
                let score =
                    |v: &SeView| v.total_pkts as f64 + f64::from(v.recent_assignments) * per_flow;
                score(a)
                    .total_cmp(&score(b))
                    .then(a.outstanding_flows.cmp(&b.outstanding_flows))
                    .then(i.cmp(j))
            })
            .map_or(0, |(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "min-load"
    }
}

/// Load-balancing granularity (paper §IV-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Grain {
    /// Each flow is dispatched independently.
    Flow,
    /// All flows of one user stick to the same replica.
    User,
}

/// The registry of service elements known to the controller, fed by
/// heartbeat messages.
#[derive(Debug, Default)]
pub struct SeRegistry {
    // Ordered: expiry sweeps and roster exports iterate this map, and
    // the resulting SeOffline/cleanup order is observable in history
    // (DESIGN.md §6).
    elements: BTreeMap<MacAddr, SeView>,
}

impl SeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests an `Online` heartbeat from `mac` at time `now`.
    /// Returns `true` if this is a newly-seen (or returning) element.
    pub fn heartbeat(&mut self, mac: MacAddr, msg: &SeMessage, now: SimTime) -> bool {
        let SeMessage::Online {
            service,
            cpu,
            mem,
            pps,
            bps,
            total_pkts,
            ..
        } = msg
        else {
            return false;
        };
        let entry = self.elements.entry(mac).or_insert(SeView {
            mac,
            service: *service,
            cpu: 0,
            mem: 0,
            pps: 0,
            total_pkts: 0,
            bps: 0,
            outstanding_flows: 0,
            recent_assignments: 0,
            last_seen: now,
            online: false,
        });
        let was_new = !entry.online;
        entry.service = *service;
        entry.cpu = *cpu;
        entry.mem = *mem;
        entry.pps = *pps;
        entry.total_pkts = *total_pkts;
        entry.bps = *bps;
        entry.last_seen = now;
        entry.online = true;
        entry.recent_assignments = 0; // fresh load figures
        was_new
    }

    /// Marks elements that missed heartbeats for `timeout` as offline;
    /// returns the MACs that just went offline.
    pub fn expire(&mut self, now: SimTime, timeout: livesec_sim::SimDuration) -> Vec<MacAddr> {
        // `elements` is a BTreeMap: when several elements expire in
        // the same sweep (e.g. their switch was partitioned), the
        // offline events and cleanups that follow come out in MAC
        // order, run-stable by construction.
        let mut dead = Vec::new();
        for v in self.elements.values_mut() {
            if v.online && now.saturating_since(v.last_seen) > timeout {
                v.online = false;
                dead.push(v.mac);
            }
        }
        dead
    }

    /// Forces an element offline (e.g. its port went down).
    pub fn force_offline(&mut self, mac: MacAddr) -> bool {
        match self.elements.get_mut(&mac) {
            Some(v) if v.online => {
                v.online = false;
                true
            }
            _ => false,
        }
    }

    /// Online elements of the given service type, in deterministic
    /// (MAC) order.
    pub fn online_of(&self, service: ServiceType) -> Vec<SeView> {
        // The map is keyed by MAC, so `values()` is already in
        // deterministic MAC order.
        self.elements
            .values()
            .filter(|e| e.online && e.service == service)
            .copied()
            .collect()
    }

    /// Adjusts the outstanding-flow count for an element. Positive
    /// deltas also count toward the element's since-last-report
    /// assignment pressure.
    pub fn adjust_outstanding(&mut self, mac: MacAddr, delta: i32) {
        if let Some(v) = self.elements.get_mut(&mac) {
            v.outstanding_flows = v.outstanding_flows.saturating_add_signed(delta);
            if delta > 0 {
                v.recent_assignments = v.recent_assignments.saturating_add(delta as u32);
            }
        }
    }

    /// The view of one element.
    pub fn get(&self, mac: MacAddr) -> Option<&SeView> {
        self.elements.get(&mac)
    }

    /// All known elements in deterministic order.
    pub fn all(&self) -> Vec<SeView> {
        self.elements.values().copied().collect()
    }
}

/// The complete balancer: a dispatcher, a granularity, and user
/// stickiness state.
///
/// ```rust
/// use livesec::balance::{Grain, LoadBalancer, RoundRobin};
///
/// let lb = LoadBalancer::new(RoundRobin::new(), Grain::User);
/// assert_eq!(lb.algorithm(), "round-robin");
/// assert_eq!(lb.grain(), Grain::User);
/// ```
#[derive(Debug)]
pub struct LoadBalancer {
    dispatcher: Box<dyn Dispatcher>,
    grain: Grain,
    sticky: HashMap<(MacAddr, ServiceType), MacAddr, FixedState>,
}

impl LoadBalancer {
    /// Creates a balancer with the given algorithm and granularity.
    pub fn new(dispatcher: impl Dispatcher, grain: Grain) -> Self {
        LoadBalancer {
            dispatcher: Box::new(dispatcher),
            grain,
            sticky: HashMap::default(),
        }
    }

    /// The paper's recommended default: minimum-load at flow grain.
    pub fn min_load() -> Self {
        LoadBalancer::new(MinLoad::new(), Grain::Flow)
    }

    /// The dispatcher's name.
    pub fn algorithm(&self) -> &'static str {
        self.dispatcher.name()
    }

    /// The configured granularity.
    pub fn grain(&self) -> Grain {
        self.grain
    }

    /// Picks an online element of `service` for `flow`, honoring user
    /// stickiness at user grain. Returns `None` if no replica is
    /// online.
    pub fn pick(
        &mut self,
        registry: &SeRegistry,
        service: ServiceType,
        flow: &FlowKey,
    ) -> Option<MacAddr> {
        let candidates = registry.online_of(service);
        if candidates.is_empty() {
            return None;
        }
        let user = flow.dl_src;
        if self.grain == Grain::User {
            if let Some(&mac) = self.sticky.get(&(user, service)) {
                if candidates.iter().any(|c| c.mac == mac) {
                    return Some(mac);
                }
                // Stuck to a dead element: fall through and re-pick.
                self.sticky.remove(&(user, service));
            }
        }
        let idx = self.dispatcher.pick(flow, user, &candidates);
        let mac = candidates[idx].mac;
        if self.grain == Grain::User {
            self.sticky.insert((user, service), mac);
        }
        Some(mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_sim::SimDuration;

    fn flow(tp_src: u16, user: u64) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(user),
            dl_dst: MacAddr::from_u64(0xffff),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "8.8.8.8".parse().unwrap(),
            nw_proto: 6,
            tp_src,
            tp_dst: 80,
        }
    }

    fn online(mac: u64, pps: u64) -> SeView {
        SeView {
            mac: MacAddr::from_u64(mac),
            service: ServiceType::IntrusionDetection,
            cpu: 0,
            mem: 0,
            pps,
            total_pkts: pps,
            bps: 0,
            outstanding_flows: 0,
            recent_assignments: 0,
            last_seen: SimTime::ZERO,
            online: true,
        }
    }

    fn registry_with(views: Vec<SeView>) -> SeRegistry {
        let mut r = SeRegistry::new();
        for v in views {
            let msg = SeMessage::Online {
                service: v.service,
                cert: 0,
                cpu: v.cpu,
                mem: v.mem,
                pps: v.pps,
                bps: v.bps,
                total_pkts: v.total_pkts,
            };
            r.heartbeat(v.mac, &msg, SimTime::ZERO);
            for _ in 0..v.outstanding_flows {
                r.adjust_outstanding(v.mac, 1);
            }
        }
        r
    }

    #[test]
    fn round_robin_cycles() {
        let mut d = RoundRobin::new();
        let c = vec![online(1, 0), online(2, 0), online(3, 0)];
        let picks: Vec<usize> = (0..6)
            .map(|i| d.pick(&flow(i, 1), MacAddr::from_u64(1), &c))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        let mut d = HashDispatch::new();
        let c = vec![online(1, 0), online(2, 0), online(3, 0), online(4, 0)];
        let f = flow(1234, 1);
        let first = d.pick(&f, MacAddr::from_u64(1), &c);
        for _ in 0..10 {
            assert_eq!(d.pick(&f, MacAddr::from_u64(1), &c), first, "stable");
        }
        // Different flows spread over replicas.
        let mut seen = std::collections::HashSet::new();
        for p in 0..64 {
            seen.insert(d.pick(&flow(p, 1), MacAddr::from_u64(1), &c));
        }
        assert!(seen.len() >= 3, "spread across replicas: {seen:?}");
    }

    #[test]
    fn least_queue_prefers_emptier() {
        let mut d = LeastQueue::new();
        let mut a = online(1, 0);
        a.outstanding_flows = 5;
        let mut b = online(2, 0);
        b.outstanding_flows = 2;
        assert_eq!(d.pick(&flow(1, 1), MacAddr::from_u64(1), &[a, b]), 1);
    }

    #[test]
    fn min_load_prefers_fewest_packets() {
        let mut d = MinLoad::new();
        let c = vec![online(1, 900), online(2, 100), online(3, 500)];
        assert_eq!(d.pick(&flow(1, 1), MacAddr::from_u64(1), &c), 1);
    }

    #[test]
    fn min_load_ties_break_by_outstanding() {
        let mut d = MinLoad::new();
        let mut a = online(1, 0);
        a.outstanding_flows = 4;
        let b = online(2, 0);
        assert_eq!(d.pick(&flow(1, 1), MacAddr::from_u64(1), &[a, b]), 1);
    }

    #[test]
    fn registry_heartbeat_and_expiry() {
        let mut r = SeRegistry::new();
        let msg = SeMessage::Online {
            service: ServiceType::IntrusionDetection,
            cert: 0,
            cpu: 10,
            mem: 20,
            pps: 30,
            bps: 40,
            total_pkts: 30,
        };
        assert!(r.heartbeat(MacAddr::from_u64(1), &msg, SimTime::ZERO));
        assert!(
            !r.heartbeat(MacAddr::from_u64(1), &msg, SimTime::ZERO),
            "not new"
        );
        assert_eq!(r.online_of(ServiceType::IntrusionDetection).len(), 1);
        assert_eq!(r.online_of(ServiceType::Firewall).len(), 0);

        let dead = r.expire(
            SimTime::from_nanos(10_000_000_000),
            SimDuration::from_secs(1),
        );
        assert_eq!(dead, vec![MacAddr::from_u64(1)]);
        assert!(r.online_of(ServiceType::IntrusionDetection).is_empty());
        // Heartbeat brings it back (counts as new).
        assert!(r.heartbeat(
            MacAddr::from_u64(1),
            &msg,
            SimTime::from_nanos(11_000_000_000)
        ));
    }

    #[test]
    fn registry_ignores_event_messages() {
        let mut r = SeRegistry::new();
        let msg = SeMessage::Event {
            cert: 0,
            flow: flow(1, 1),
            verdict: livesec_services::Verdict::Application { app: "x".into() },
        };
        assert!(!r.heartbeat(MacAddr::from_u64(1), &msg, SimTime::ZERO));
        assert!(r.all().is_empty());
    }

    #[test]
    fn balancer_user_grain_sticks() {
        let registry = registry_with(vec![online(1, 0), online(2, 0), online(3, 0)]);
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::User);
        let first = lb
            .pick(&registry, ServiceType::IntrusionDetection, &flow(1, 7))
            .unwrap();
        for p in 2..10 {
            assert_eq!(
                lb.pick(&registry, ServiceType::IntrusionDetection, &flow(p, 7)),
                Some(first),
                "same user sticks"
            );
        }
        // A different user advances the round-robin.
        let second = lb
            .pick(&registry, ServiceType::IntrusionDetection, &flow(1, 8))
            .unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn balancer_flow_grain_distributes_one_user() {
        let registry = registry_with(vec![online(1, 0), online(2, 0)]);
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::Flow);
        let a = lb
            .pick(&registry, ServiceType::IntrusionDetection, &flow(1, 7))
            .unwrap();
        let b = lb
            .pick(&registry, ServiceType::IntrusionDetection, &flow(2, 7))
            .unwrap();
        assert_ne!(a, b, "flow grain spreads a single user's flows");
    }

    #[test]
    fn balancer_repicks_when_sticky_target_dies() {
        let mut registry = registry_with(vec![online(1, 0), online(2, 0)]);
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::User);
        let first = lb
            .pick(&registry, ServiceType::IntrusionDetection, &flow(1, 7))
            .unwrap();
        registry.force_offline(first);
        let second = lb
            .pick(&registry, ServiceType::IntrusionDetection, &flow(2, 7))
            .unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn balancer_none_when_no_replicas() {
        let registry = SeRegistry::new();
        let mut lb = LoadBalancer::min_load();
        assert_eq!(
            lb.pick(&registry, ServiceType::IntrusionDetection, &flow(1, 1)),
            None
        );
    }
}
