//! Distributed load balancing over service elements (paper §IV-B).
//!
//! The controller knows every service element's real-time load from
//! its heartbeat messages and dispatches flows (or whole users) over
//! the replicas of each service type. The paper names four dispatching
//! algorithms — polling, hash, queuing, and minimum-load — and two
//! granularities — per-flow and per-user; all are implemented here.
//! The element views themselves live in the location table beside
//! their elements' locations ([`crate::location::LocationTable`]),
//! which hands the balancer each pick's candidates.

use livesec_net::{FlowKey, HashMap, MacAddr};
use livesec_services::ServiceType;
use livesec_sim::SimTime;
use serde::{Deserialize, Serialize};
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
    /// Whether the last heartbeat is fresh (within the controller's
    /// heartbeat timeout).
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

    /// The stable hash of a flow key used for dispatch: FNV-1a over its
    /// 13 bytes `nw_src`, `nw_dst`, `nw_proto`, `tp_src`, `tp_dst`
    /// (network order).
    pub fn hash_flow(flow: &FlowKey) -> u64 {
        let bytes = flow
            .nw_src
            .octets()
            .into_iter()
            .chain(flow.nw_dst.octets())
            .chain([flow.nw_proto])
            .chain(flow.tp_src.to_be_bytes())
            .chain(flow.tp_dst.to_be_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Grain {
    /// Each flow is dispatched independently.
    Flow,
    /// All flows of one user stick to the same replica.
    User,
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
    sticky: HashMap<(MacAddr, ServiceType), MacAddr>,
    /// The current pick's candidates, refilled by every pick.
    candidates: Vec<SeView>,
}

impl LoadBalancer {
    /// Creates a balancer with the given algorithm and granularity.
    pub fn new(dispatcher: impl Dispatcher, grain: Grain) -> Self {
        LoadBalancer {
            dispatcher: Box::new(dispatcher),
            grain,
            sticky: HashMap::default(),
            candidates: Vec::new(),
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

    /// Picks one of `online`, the online elements of `service`, for
    /// `flow`, honoring user stickiness at user grain. Returns `None` if
    /// there are none.
    pub fn pick<'a>(
        &mut self,
        online: impl IntoIterator<Item = &'a SeView>,
        service: ServiceType,
        flow: &FlowKey,
    ) -> Option<MacAddr> {
        let candidates = &mut self.candidates;
        candidates.clear();
        candidates.extend(online.into_iter().copied());
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
        let idx = self.dispatcher.pick(flow, user, candidates);
        let mac = candidates.get(idx)?.mac;
        if self.grain == Grain::User {
            self.sticky.insert((user, service), mac);
        }
        Some(mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut seen = livesec_net::HashSet::default();
        for p in 0..64 {
            seen.insert(d.pick(&flow(p, 1), MacAddr::from_u64(1), &c));
        }
        assert!(seen.len() >= 3, "spread across replicas: {seen:?}");
    }

    #[test]
    fn hash_flow_is_pinned() {
        // Values of the byte-buffer FNV-1a this fold replaced: a changed
        // hash would move every hash-dispatched flow to another replica.
        assert_eq!(
            HashDispatch::hash_flow(&flow(1234, 1)),
            0x168b_d1cc_986d_3fe4
        );
        let dns = FlowKey {
            nw_src: "192.168.7.42".parse().unwrap(),
            nw_dst: "10.1.2.3".parse().unwrap(),
            nw_proto: 17,
            tp_src: 53_000,
            tp_dst: 53,
            ..flow(0, 2)
        };
        assert_eq!(HashDispatch::hash_flow(&dns), 0x8040_aefa_bb84_a451);
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
    fn balancer_user_grain_sticks() {
        let replicas = [online(1, 0), online(2, 0), online(3, 0)];
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::User);
        let first = lb
            .pick(&replicas, ServiceType::IntrusionDetection, &flow(1, 7))
            .unwrap();
        for p in 2..10 {
            assert_eq!(
                lb.pick(&replicas, ServiceType::IntrusionDetection, &flow(p, 7)),
                Some(first),
                "same user sticks"
            );
        }
        // A different user advances the round-robin.
        let second = lb
            .pick(&replicas, ServiceType::IntrusionDetection, &flow(1, 8))
            .unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn balancer_flow_grain_distributes_one_user() {
        let replicas = [online(1, 0), online(2, 0)];
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::Flow);
        let a = lb
            .pick(&replicas, ServiceType::IntrusionDetection, &flow(1, 7))
            .unwrap();
        let b = lb
            .pick(&replicas, ServiceType::IntrusionDetection, &flow(2, 7))
            .unwrap();
        assert_ne!(a, b, "flow grain spreads a single user's flows");
    }

    #[test]
    fn balancer_repicks_when_sticky_target_dies() {
        let mut replicas = vec![online(1, 0), online(2, 0)];
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::User);
        let first = lb
            .pick(&replicas, ServiceType::IntrusionDetection, &flow(1, 7))
            .unwrap();
        replicas.retain(|v| v.mac != first);
        let second = lb
            .pick(&replicas, ServiceType::IntrusionDetection, &flow(2, 7))
            .unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn balancer_none_when_no_replicas() {
        let mut lb = LoadBalancer::min_load();
        assert_eq!(
            lb.pick(&[], ServiceType::IntrusionDetection, &flow(1, 1)),
            None
        );
    }
}
