//! The [`StateStore`] trait — the network-state interface the pure
//! flow-setup decision engine ([`crate::engine`]) consumes.
//!
//! Splitting [`crate::Controller`] into a decision engine plus a state
//! store (DESIGN.md §9) is what makes the control plane shardable:
//! every shard runs the same engine, and which store it reads — the
//! live controller NIB, or a standalone [`NetworkState`] in a bench —
//! is an implementation detail. The controller itself implements
//! `StateStore` directly over its NIB, so sharding never copies state.

use crate::balance::LoadBalancer;
use crate::location::LocationTable;
use crate::policy::{PolicyDecision, PolicyTable};
use crate::routing::Hop;
use livesec_net::{FlowKey, MacAddr};
use livesec_services::ServiceType;
use std::collections::BTreeMap;

/// What the decision engine needs to know about the network, and the
/// one thing it mutates (the stateful balancer pick).
///
/// Method order mirrors the engine's call order on the cold path:
/// policy decision, then per-service picks, then hop lookups, then
/// uplink lookups during path compilation.
pub trait StateStore {
    /// The policy verdict for a flow, with the matching rule's name,
    /// borrowed: only a denial keeps it.
    fn decide_policy(&self, key: &FlowKey) -> (PolicyDecision, Option<&str>);

    /// Picks a replica of `service` for the flow. Stateful: dispatch
    /// counters and stickiness advance exactly once per call, so the
    /// engine calls it precisely where the monolithic cold path did.
    fn pick_element(&mut self, service: ServiceType, key: &FlowKey) -> Option<MacAddr>;

    /// Where a MAC is attached, if known.
    fn hop_of(&self, mac: MacAddr) -> Option<Hop>;

    /// The uplink port of a switch, if discovered.
    fn uplink_of(&self, dpid: u64) -> Option<u32>;
}

/// A self-contained [`StateStore`]: policy, balancer, a location table
/// and a static uplink map, with no controller or simulation around
/// them. This is what the engine unit tests drive — a
/// synthetic 100k-host campus fits in one of these with no per-host
/// simulation cost.
#[derive(Debug)]
pub struct NetworkState {
    /// The policy table consulted by `decide_policy`.
    pub policy: PolicyTable,
    /// The (stateful) load balancer.
    pub balancer: LoadBalancer,
    /// Where each MAC is attached, and the element views the balancer
    /// picks from — the controller's own table type.
    pub locations: LocationTable,
    /// dpid → uplink port. Ordered for determinism.
    pub uplinks: BTreeMap<u64, u32>,
}

impl NetworkState {
    /// An empty store: allow-all policy, minimum-load balancer, no
    /// hosts.
    pub fn new() -> Self {
        NetworkState {
            policy: PolicyTable::allow_all(),
            balancer: LoadBalancer::min_load(),
            locations: LocationTable::new(),
            uplinks: BTreeMap::new(),
        }
    }

    /// Declares `port` the uplink of `dpid`.
    pub fn set_uplink(&mut self, dpid: u64, port: u32) {
        self.uplinks.insert(dpid, port);
    }
}

impl Default for NetworkState {
    fn default() -> Self {
        NetworkState::new()
    }
}

impl StateStore for NetworkState {
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
        self.uplinks.get(&dpid).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_sim::SimTime;

    #[test]
    fn standalone_store_answers_like_its_maps() {
        let mut s = NetworkState::new();
        let mac = MacAddr::from_u64(0xa1);
        assert!(s.hop_of(mac).is_none());
        let ip = "10.0.0.1".parse().unwrap();
        s.locations.learn(mac, ip, (7, 3), SimTime::ZERO, true);
        s.set_uplink(7, 40);
        let hop = s.hop_of(mac).expect("located");
        assert_eq!((hop.dpid, hop.port), (7, 3));
        assert_eq!(s.uplink_of(7), Some(40));
        assert_eq!(s.uplink_of(8), None);
    }
}
