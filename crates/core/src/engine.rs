//! The pure flow-setup decision engine (DESIGN.md §9).
//!
//! Set-up is three stages, each a function of the store and the
//! previous stage's output, run in an order that is part of the
//! determinism spec (DESIGN.md §6):
//!
//! 1. [`policy`] — the policy lookup: deny, or the service chain;
//! 2. [`picks`] — one balancer pick per chained service (the only
//!    state the engine mutates, through [`StateStore::pick_element`]:
//!    dispatch is inherently stateful);
//! 3. [`compile`] — hop lookups (source, destination, elements), then
//!    the forward and the reverse steering program.
//!
//! [`decide`] is their composition — a set-up from nothing.
//! [`revalidate`] is the set-up from a memoized decision: it re-runs
//! stage 2 exactly as `decide` would (so the balancer sees one call
//! sequence, cache or no cache) and skips stages 1 and 3 when the picks
//! land where they did. The caller (the controller, or a shard of the
//! sharded control plane) owns every side effect: cache inserts,
//! flow-mods, monitor events, and the flow books.

use crate::cache::CachedDecision;
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

impl EngineDecision {
    /// The replayable form of this decision, if it is one the cache
    /// may hold: denials by policy and admissions. `ChainUnavailable`
    /// and `Unroutable` describe the network's state, not the flow's,
    /// and are re-derived every time.
    pub fn memo(&self) -> Option<CachedDecision> {
        match self {
            EngineDecision::Deny { rule } => Some(CachedDecision::Deny { rule: rule.clone() }),
            EngineDecision::Steer {
                services,
                elements,
                forward,
                reverse,
            } => Some(CachedDecision::Steer {
                services: services.clone(),
                elements: elements.clone(),
                forward: Rc::clone(forward),
                reverse: Rc::clone(reverse),
            }),
            EngineDecision::ChainUnavailable { .. } | EngineDecision::Unroutable => None,
        }
    }
}

/// Stage 1: the policy verdict — the service chain to steer through
/// (empty for a plain allow), or the denial.
///
/// # Errors
///
/// `Err` carries the [`EngineDecision::Deny`] that ends the set-up.
pub fn policy<S: StateStore + ?Sized>(
    store: &S,
    key: &FlowKey,
) -> Result<Vec<ServiceType>, EngineDecision> {
    match store.decide_policy(key) {
        (PolicyDecision::Deny, rule) => Err(EngineDecision::Deny { rule }),
        (PolicyDecision::Allow, _) => Ok(Vec::new()),
        (PolicyDecision::Chain(services), _) => Ok(services),
    }
}

/// Stage 2: one balancer pick per chained service, in chain order —
/// the stateful stage, run identically by [`decide`] and
/// [`revalidate`].
///
/// # Errors
///
/// `Err` carries the [`EngineDecision::ChainUnavailable`] naming the
/// first service with no online replica; later services are not
/// picked.
pub fn picks<S: StateStore + ?Sized>(
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
pub fn compile<S: StateStore + ?Sized>(
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

/// Decides a flow's fate from a decision-cache hit.
///
/// The balancer is stateful (round-robin counters, stickiness, queue
/// depths), so the picks are re-run exactly as [`decide`] runs them.
/// Same elements: the memoized programs are reused (the same `Rc`s).
/// Moved elements (replicas came or went): recompiled for the new
/// picks. A service with no replica left: `ChainUnavailable`. A
/// memoized denial is replayed as it is — the cache's policy epoch
/// vouches for it.
///
/// The flag is whether `cached` still stands; when it does not, the
/// caller drops the entry and memoizes the returned decision instead.
pub fn revalidate<S: StateStore + ?Sized>(
    store: &mut S,
    key: &FlowKey,
    cached: CachedDecision,
) -> (EngineDecision, bool) {
    match cached {
        CachedDecision::Deny { rule } => (EngineDecision::Deny { rule }, true),
        CachedDecision::Steer {
            services,
            elements,
            forward,
            reverse,
        } => match picks(store, key, &services) {
            Ok(picked) if picked == elements => (
                EngineDecision::Steer {
                    services,
                    elements,
                    forward,
                    reverse,
                },
                true,
            ),
            Ok(picked) => (compile(store, key, services, picked, STEER_PRIORITY), false),
            Err(unavailable) => (unavailable, false),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{Dispatcher, Grain, LoadBalancer, RoundRobin, SeView};
    use crate::policy::{PolicyRule, PolicyTable};
    use crate::store::NetworkState;
    use livesec_services::SeMessage;
    use livesec_sim::SimTime;
    use std::cell::Cell;

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
        s.locate(MacAddr::from_u64(0xa1), 1, 2);
        s.locate(MacAddr::from_u64(0xb1), 2, 3);
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
        s.registry.heartbeat(se, &online, SimTime::ZERO);
        s.locate(se, 1, port);
    }

    /// Round-robin dispatch that counts its calls — the balancer state
    /// a skipped pick would leave behind.
    #[derive(Debug)]
    struct Counting(RoundRobin, Rc<Cell<u64>>);

    impl Dispatcher for Counting {
        fn pick(&mut self, flow: &FlowKey, user: MacAddr, candidates: &[SeView]) -> usize {
            self.1.set(self.1.get() + 1);
            self.0.pick(flow, user, candidates)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// The web→IDS store with `replicas` round-robin replicas, and the
    /// balancer's call counter.
    fn chained_store(replicas: u64) -> (NetworkState, Rc<Cell<u64>>) {
        let calls = Rc::new(Cell::new(0));
        let mut s = store_with_hosts();
        s.policy = web_ids_policy();
        s.balancer = LoadBalancer::new(Counting(RoundRobin::new(), Rc::clone(&calls)), Grain::Flow);
        for i in 0..replicas {
            add_replica(&mut s, 0xe1 + i, 30 + i as u32);
        }
        (s, calls)
    }

    fn steer_parts(d: &EngineDecision) -> (&[MacAddr], &Rc<SteeringProgram>, &Rc<SteeringProgram>) {
        match d {
            EngineDecision::Steer {
                elements,
                forward,
                reverse,
                ..
            } => (elements, forward, reverse),
            other => panic!("expected Steer, got {other:?}"),
        }
    }

    /// What [`differential`] saw.
    struct Outcome {
        /// The first set-up (both stores made it).
        first: EngineDecision,
        /// The second set-up, revalidated from the first one's memo.
        revalidated: EngineDecision,
        /// Whether `revalidate` said the memo still stands.
        stood: bool,
        /// The second set-up, decided from scratch on the other store.
        fresh: EngineDecision,
        /// Dispatcher calls on either store (asserted equal).
        calls: u64,
    }

    /// Runs the same history on two identically-built stores — a
    /// set-up, then `change`, then a second set-up — taking the second
    /// set-up from the memo on one and from scratch on the other.
    fn differential(replicas: u64, change: impl Fn(&mut NetworkState)) -> Outcome {
        let k = key(0xa1, 0xb1, 80);
        let (mut warm, warm_calls) = chained_store(replicas);
        let (mut cold, cold_calls) = chained_store(replicas);
        let first = decide(&mut warm, &k);
        decide(&mut cold, &k);
        change(&mut warm);
        change(&mut cold);
        let memo = first.memo().expect("a steer decision is memoizable");
        let (revalidated, stood) = revalidate(&mut warm, &k, memo);
        let fresh = decide(&mut cold, &k);
        assert_eq!(
            warm_calls.get(),
            cold_calls.get(),
            "a cache hit must call the balancer exactly as a cold set-up does"
        );
        Outcome {
            first,
            revalidated,
            stood,
            fresh,
            calls: warm_calls.get(),
        }
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
    fn deny_rule_surfaces_by_name_and_replays_from_the_memo() {
        let mut s = store_with_hosts();
        let mut policy = PolicyTable::allow_all();
        policy.push(PolicyRule::named("no-web").proto(6).dst_port(80).deny());
        s.policy = policy;
        let k = key(0xa1, 0xb1, 80);
        let denied = decide(&mut s, &k);
        match &denied {
            EngineDecision::Deny { rule } => assert_eq!(rule.as_deref(), Some("no-web")),
            other => panic!("expected Deny, got {other:?}"),
        }
        let (replayed, stood) = revalidate(&mut s, &k, denied.memo().expect("memoizable"));
        assert!(stood);
        assert!(
            matches!(replayed, EngineDecision::Deny { rule } if rule.as_deref() == Some("no-web"))
        );
    }

    #[test]
    fn chain_without_replicas_fails_closed() {
        let (mut s, _) = chained_store(0);
        let d = decide(&mut s, &key(0xa1, 0xb1, 80));
        match &d {
            EngineDecision::ChainUnavailable { rule } => {
                assert_eq!(rule, &format!("no-online-element:{IDS}"));
            }
            other => panic!("expected ChainUnavailable, got {other:?}"),
        }
        assert!(d.memo().is_none(), "a replica outage is never memoized");
    }

    #[test]
    fn chain_steers_through_a_picked_element() {
        let (mut s, _) = chained_store(1);
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
        assert!(d.memo().is_none());
    }

    #[test]
    fn revalidate_reuses_the_programs_when_the_picks_stand() {
        let o = differential(1, |_| {});
        assert!(o.stood);
        assert_eq!(o.calls, 2, "one pick per set-up, hit or not");
        let (elements, forward, reverse) = steer_parts(&o.revalidated);
        let (first_elements, first_forward, first_reverse) = steer_parts(&o.first);
        assert_eq!(elements, first_elements);
        assert!(Rc::ptr_eq(forward, first_forward), "forward program reused");
        assert!(Rc::ptr_eq(reverse, first_reverse), "reverse program reused");
        let (fresh_elements, fresh_forward, fresh_reverse) = steer_parts(&o.fresh);
        assert_eq!(elements, fresh_elements);
        assert_eq!(
            (&**forward, &**reverse),
            (&**fresh_forward, &**fresh_reverse)
        );
    }

    #[test]
    fn revalidate_recompiles_when_the_balancer_moves() {
        // A second replica comes online (round-robin then lands on it),
        // or the first one goes away: either way the memoized programs
        // steer through the wrong element.
        let added = |s: &mut NetworkState| add_replica(s, 0xe9, 39);
        let removed = |s: &mut NetworkState| {
            s.registry.force_offline(MacAddr::from_u64(0xe1));
        };
        for (replicas, change) in [
            (1, &added as &dyn Fn(&mut NetworkState)),
            (2, &removed as &dyn Fn(&mut NetworkState)),
        ] {
            let o = differential(replicas, change);
            assert!(!o.stood, "the memo is void once the picks move");
            assert_eq!(o.calls, 2);
            let (elements, forward, reverse) = steer_parts(&o.revalidated);
            let (fresh_elements, fresh_forward, fresh_reverse) = steer_parts(&o.fresh);
            assert_eq!(elements, fresh_elements, "same picks as a cold set-up");
            assert_ne!(elements, steer_parts(&o.first).0, "the balancer moved");
            assert_eq!(
                (&**forward, &**reverse),
                (&**fresh_forward, &**fresh_reverse)
            );
            assert!(
                forward.entries.iter().any(|e| e
                    .actions
                    .contains(&livesec_openflow::Action::SetDlDst(elements[0]))),
                "recompiled through the new element: {forward}"
            );
        }
    }

    #[test]
    fn revalidate_fails_closed_when_the_last_replica_is_gone() {
        let o = differential(1, |s| {
            s.registry.force_offline(MacAddr::from_u64(0xe1));
        });
        assert!(!o.stood);
        let expected = format!("no-online-element:{IDS}");
        for d in [&o.revalidated, &o.fresh] {
            match d {
                EngineDecision::ChainUnavailable { rule } => assert_eq!(rule, &expected),
                other => panic!("expected ChainUnavailable, got {other:?}"),
            }
        }
    }
}
