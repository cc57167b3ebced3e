//! Cross-shard flow handoff. When a flow's ingress switch and egress
//! switch hash to different shards, the ingress owner sets up the
//! whole end-to-end steering program against the shared NIB and books
//! a handoff. The path must be exactly as consistent as the unsharded
//! one — which the header-space audit proves, in full after traffic
//! and scoped to a policy delta applied mid-run.

use livesec_suite::prelude::*;
use livesec_verify::{audit_delta, audit_settled, RuleDelta, Snapshot};
use livesec_workloads::{CampusScenario, ScenarioConfig};

fn sharded_scenario(shards: u32) -> CampusScenario {
    CampusScenario::build(ScenarioConfig {
        seed: 42,
        shards,
        // Short idle timeout: recurring flows re-enter setup on
        // whichever shard owns their ingress.
        flow_idle: SimDuration::from_millis(300),
        ..ScenarioConfig::default()
    })
}

#[test]
fn cross_shard_flows_get_consistent_end_to_end_paths() {
    let mut s = sharded_scenario(4);
    s.campus.world.run_for(SimDuration::from_secs(5));

    let plane = s.campus.shard_plane().expect("campus is sharded");
    assert!(
        plane.handoffs() > 0,
        "no flow ever crossed shards: {:?}",
        plane.shard_stats()
    );

    // The shard map is non-trivial: the campus's switches really are
    // owned by more than one shard.
    let stats = plane.shard_stats();
    let owners_with_switches = stats.iter().filter(|st| !st.owned.is_empty()).count();
    assert!(
        owners_with_switches >= 2,
        "ring put every switch on one shard: {stats:?}"
    );

    // Consistency is the audit's job: every admitted flow (cross-shard
    // or not) must reach its destination through its required chain,
    // and every blocked one must stay blocked.
    let violations = audit_settled(&mut s.campus, 30, SimDuration::from_millis(100));
    assert!(violations.is_empty(), "audit found: {violations:#?}");
}

/// A policy *delta* applied mid-traffic on a sharded campus: the
/// incremental auditor scoped to the delta's cubes must settle clean on
/// the sharded dataplane (DESIGN.md §14).
#[test]
fn scoped_delta_on_a_sharded_campus_audits_clean() {
    let mut s = sharded_scenario(4);
    s.campus.world.run_for(SimDuration::from_secs(4));

    let plane = s.campus.shard_plane().expect("campus is sharded");
    assert!(plane.handoffs() > 0, "no cross-shard flow before the edit");

    // Insert a deny on an idle telnet-ish class through the shared
    // store.
    let deltas = [PolicyDelta::Insert {
        index: 0,
        rule: PolicyRule::named("telnet-deny")
            .proto(6)
            .dst_port(2323)
            .deny(),
    }];
    let now = s.campus.world.kernel().now();
    let cubes = s.campus.controller_mut().apply_policy_delta(now, &deltas);
    assert!(!cubes.is_empty());

    let scoped: Vec<RuleDelta> = cubes.into_iter().map(RuleDelta::network_wide).collect();
    let mut violations = Vec::new();
    for _ in 0..30 {
        s.campus.world.run_for(SimDuration::from_millis(100));
        violations = audit_delta(&Snapshot::of_campus(&s.campus), &scoped);
        if violations.is_empty() {
            break;
        }
    }
    assert!(
        violations.is_empty(),
        "incremental audit on the sharded campus found: {violations:#?}"
    );
}
