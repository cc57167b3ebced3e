//! The pure flow-setup decision engine (DESIGN.md §9).
//!
//! Set-up is three stages, each a function of the store and the
//! previous stage's output, run in an order that is part of the
//! determinism spec (DESIGN.md §6):
//!
//! 1. `policy` — the policy lookup: deny, or the service chain;
//! 2. `picks` — one balancer pick per chained service (the only state
//!    the engine mutates, through [`StateStore::pick_element`]:
//!    dispatch is inherently stateful);
//! 3. `compile` — hop lookups (source, destination, elements), then
//!    the forward and the reverse steering program.
//!
//! [`decide`] is their composition, and every packet-in of an unknown
//! flow runs it from nothing: no decision is kept, so none can go
//! stale. The caller (the controller) owns every side effect:
//! flow-mods, monitor events, and the flow books.

use crate::controller::STEER_PRIORITY;
use crate::policy::PolicyDecision;
use crate::routing::{compile_path, SteeringProgram};
use crate::store::StateStore;
use livesec_net::{FlowKey, MacAddr};
use livesec_services::ServiceType;
use std::rc::Rc;

/// The outcome of a flow-setup decision.
#[derive(Clone, Debug)]
pub enum EngineDecision {
    /// The policy denies the flow; install a drop at the ingress.
    Deny {
        /// Name of the matching policy rule, if any.
        rule: Option<String>,
    },
    /// A chained service has no online replica: the flow is denied
    /// (the controller fails closed) with the synthesized rule string.
    ChainUnavailable {
        /// The `no-online-element:<service>` denial reason.
        rule: String,
    },
    /// A host is unlocated or discovery hasn't converged; do nothing
    /// (the sender re-ARPs and retries).
    Unroutable,
    /// Admit: steer the flow through `elements` along the compiled
    /// programs.
    Steer {
        /// The policy chain.
        services: Vec<ServiceType>,
        /// The picked replica per service, in chain order.
        elements: Vec<MacAddr>,
        /// The forward steering program.
        forward: Rc<SteeringProgram>,
        /// The reverse steering program.
        reverse: Rc<SteeringProgram>,
    },
}

/// Stage 1: the policy verdict — the service chain to steer through
/// (empty for a plain allow), or the denial.
///
/// # Errors
///
/// `Err` carries the [`EngineDecision::Deny`] that ends the set-up.
fn policy<S: StateStore + ?Sized>(
    store: &S,
    key: &FlowKey,
) -> Result<Vec<ServiceType>, EngineDecision> {
    match store.decide_policy(key) {
        (PolicyDecision::Deny, rule) => Err(EngineDecision::Deny {
            rule: rule.map(str::to_owned),
        }),
        (PolicyDecision::Allow, _) => Ok(Vec::new()),
        (PolicyDecision::Chain(services), _) => Ok(services),
    }
}

/// Stage 2: one balancer pick per chained service, in chain order —
/// the stateful stage.
///
/// # Errors
///
/// `Err` carries the [`EngineDecision::ChainUnavailable`] naming the
/// first service with no online replica; later services are not
/// picked.
fn picks<S: StateStore + ?Sized>(
    store: &mut S,
    key: &FlowKey,
    services: &[ServiceType],
) -> Result<Vec<MacAddr>, EngineDecision> {
    let mut elements = Vec::with_capacity(services.len());
    for service in services {
        match store.pick_element(*service, key) {
            Some(mac) => elements.push(mac),
            None => {
                return Err(EngineDecision::ChainUnavailable {
                    rule: format!("no-online-element:{service}"),
                })
            }
        }
    }
    Ok(elements)
}

/// Stage 3: hop lookups (source, destination, then the elements) and
/// the compilation of the forward and the reverse program at
/// `priority`. [`EngineDecision::Unroutable`] if a hop is unlocated or
/// an uplink undiscovered.
pub(crate) fn compile<S: StateStore + ?Sized>(
    store: &S,
    key: &FlowKey,
    services: Vec<ServiceType>,
    elements: Vec<MacAddr>,
    priority: u16,
) -> EngineDecision {
    let Some(src_hop) = store.hop_of(key.dl_src) else {
        return EngineDecision::Unroutable;
    };
    let Some(dst_hop) = store.hop_of(key.dl_dst) else {
        return EngineDecision::Unroutable; // destination will re-ARP
    };
    let mut hops = Vec::with_capacity(elements.len() + 2);
    hops.push(src_hop);
    for mac in &elements {
        let Some(h) = store.hop_of(*mac) else {
            return EngineDecision::Unroutable;
        };
        hops.push(h);
    }
    hops.push(dst_hop);

    let uplink = |d: u64| store.uplink_of(d);
    let Ok(forward) = compile_path(key, &hops, uplink, priority) else {
        return EngineDecision::Unroutable;
    };
    hops.reverse();
    let Ok(reverse) = compile_path(&key.reversed(), &hops, uplink, priority) else {
        return EngineDecision::Unroutable;
    };
    EngineDecision::Steer {
        services,
        elements,
        forward: Rc::new(forward),
        reverse: Rc::new(reverse),
    }
}

/// Decides a flow's fate against `store`: the three stages in order.
pub fn decide<S: StateStore + ?Sized>(store: &mut S, key: &FlowKey) -> EngineDecision {
    let services = match policy(store, key) {
        Ok(services) => services,
        Err(denied) => return denied,
    };
    match picks(store, key, &services) {
        Ok(elements) => compile(store, key, services, elements, STEER_PRIORITY),
        Err(unavailable) => unavailable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{Grain, LoadBalancer, RoundRobin};
    use crate::policy::{PolicyRule, PolicyTable};
    use crate::store::NetworkState;
    use livesec_services::SeMessage;
    use livesec_sim::SimTime;
    use std::net::Ipv4Addr;

    const IDS: ServiceType = ServiceType::IntrusionDetection;

    fn key(src: u64, dst: u64, dst_port: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(src),
            dl_dst: MacAddr::from_u64(dst),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 40_000,
            tp_dst: dst_port,
        }
    }

    fn store_with_hosts() -> NetworkState {
        let mut s = NetworkState::new();
        for (mac, ip, at) in [(0xa1, [10, 0, 0, 1], (1, 2)), (0xb1, [10, 0, 0, 2], (2, 3))] {
            let (mac, ip) = (MacAddr::from_u64(mac), Ipv4Addr::from(ip));
            s.locations.learn(mac, ip, at, SimTime::ZERO, true);
        }
        s.set_uplink(1, 40);
        s.set_uplink(2, 40);
        s
    }

    fn web_ids_policy() -> PolicyTable {
        let mut policy = PolicyTable::allow_all();
        policy.push(
            PolicyRule::named("web-ids")
                .proto(6)
                .dst_port(80)
                .chain(vec![IDS]),
        );
        policy
    }

    /// Brings an IDS replica online at `(dpid 1, port)`.
    fn add_replica(s: &mut NetworkState, mac: u64, port: u32) {
        let se = MacAddr::from_u64(mac);
        let online = SeMessage::Online {
            service: IDS,
            cert: 0,
            cpu: 10,
            mem: 0,
            pps: 0,
            bps: 0,
            total_pkts: 0,
        };
        let ip = Ipv4Addr::new(10, 0, 1, mac as u8);
        s.locations.learn(se, ip, (1, port), SimTime::ZERO, true);
        s.locations.heartbeat(se, &online, SimTime::ZERO);
    }

    /// The web→IDS store with `replicas` round-robin replicas.
    fn chained_store(replicas: u64) -> NetworkState {
        let mut s = store_with_hosts();
        s.policy = web_ids_policy();
        s.balancer = LoadBalancer::new(RoundRobin::new(), Grain::Flow);
        for i in 0..replicas {
            add_replica(&mut s, 0xe1 + i, 30 + i as u32);
        }
        s
    }

    #[test]
    fn allow_compiles_a_direct_path() {
        let mut s = store_with_hosts();
        match decide(&mut s, &key(0xa1, 0xb1, 80)) {
            EngineDecision::Steer {
                services,
                elements,
                forward,
                reverse,
            } => {
                assert!(services.is_empty());
                assert!(elements.is_empty());
                assert_eq!(forward.entries.first().map(|e| e.dpid), Some(1));
                assert_eq!(forward.entries.last().map(|e| e.dpid), Some(2));
                assert_eq!(reverse.entries.first().map(|e| e.dpid), Some(2));
            }
            other => panic!("expected Steer, got {other:?}"),
        }
    }

    #[test]
    fn deny_rule_surfaces_by_name() {
        let mut s = store_with_hosts();
        let mut policy = PolicyTable::allow_all();
        policy.push(PolicyRule::named("no-web").proto(6).dst_port(80).deny());
        s.policy = policy;
        let k = key(0xa1, 0xb1, 80);
        match decide(&mut s, &k) {
            EngineDecision::Deny { rule } => assert_eq!(rule.as_deref(), Some("no-web")),
            other => panic!("expected Deny, got {other:?}"),
        }
    }

    #[test]
    fn chain_without_replicas_fails_closed() {
        let mut s = chained_store(0);
        match decide(&mut s, &key(0xa1, 0xb1, 80)) {
            EngineDecision::ChainUnavailable { rule } => {
                assert_eq!(rule, format!("no-online-element:{IDS}"));
            }
            other => panic!("expected ChainUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn chain_steers_through_a_picked_element() {
        let mut s = chained_store(1);
        match decide(&mut s, &key(0xa1, 0xb1, 80)) {
            EngineDecision::Steer { elements, .. } => {
                assert_eq!(elements, vec![MacAddr::from_u64(0xe1)]);
            }
            other => panic!("expected Steer, got {other:?}"),
        }
    }

    #[test]
    fn unknown_destination_is_unroutable() {
        let mut s = store_with_hosts();
        let d = decide(&mut s, &key(0xa1, 0xcc, 80));
        assert!(matches!(d, EngineDecision::Unroutable));
    }
}
