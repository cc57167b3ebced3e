//! End-to-end policy-delta path (DESIGN.md §14): a live campus edits
//! its declarative policy mid-traffic through
//! `Controller::apply_policy_delta` and we check, against the
//! wholesale `set_policy` path, that
//!
//! - the delta run is observably equivalent (same event history, same
//!   final table), and
//! - the incremental auditor, scoped to exactly the cubes the
//!   controller reports, passes once the edit settles.

use livesec_policy::compile_delta;
use livesec_sim::SimDuration;
use livesec_suite::prelude::*;
use livesec_verify::{audit_delta, RuleDelta, Snapshot, Violation};
use livesec_workloads::{CampusScenario, ScenarioConfig};

/// The built-in Figure-7 table, as declarative source.
const BASE: &str = "\
chain web-chain = [ ids, protoid ]
chain tcp-chain = [ protoid ]
rule web-ids-protoid: proto tcp port 80 via web-chain
rule tcp-protoid: proto tcp via tcp-chain
default allow
";

/// `BASE` with the web class denied outright — an edit squarely on
/// the campus's busiest class.
const BASE_WITH_WEB_DENY: &str = "\
chain web-chain = [ ids, protoid ]
chain tcp-chain = [ protoid ]
rule web-ids-protoid: proto tcp port 80 deny
rule tcp-protoid: proto tcp via tcp-chain
default allow
";

fn scenario() -> CampusScenario {
    CampusScenario::build(ScenarioConfig {
        policy_src: Some(BASE),
        ..ScenarioConfig::default()
    })
}

fn history(campus: &Campus) -> Vec<String> {
    campus
        .controller()
        .monitor()
        .events()
        .iter()
        .filter(|e| e.kind.tag() != "policy_delta_applied")
        .map(|e| format!("{e:?}"))
        .collect()
}

/// The same edit applied wholesale (`set_policy`) and as a compiled
/// delta script produces the same policy table and — once the
/// delta-path's own bookkeeping event is filtered out — the same
/// event history, byte for byte.
#[test]
fn delta_run_matches_wholesale_run() {
    let (deltas, compiled) = compile_delta(BASE, BASE_WITH_WEB_DENY).expect("compiles");
    assert!(!deltas.is_empty());

    let mut wholesale = scenario();
    wholesale.campus.world.run_for(SimDuration::from_secs(2));
    wholesale
        .campus
        .controller_mut()
        .set_policy(compiled.table.clone());
    wholesale.campus.world.run_for(SimDuration::from_secs(4));

    let mut delta = scenario();
    delta.campus.world.run_for(SimDuration::from_secs(2));
    let now = delta.campus.world.kernel().now();
    let cubes = delta
        .campus
        .controller_mut()
        .apply_policy_delta(now, &deltas);
    assert!(!cubes.is_empty());
    delta.campus.world.run_for(SimDuration::from_secs(4));

    assert_eq!(
        delta.campus.controller().policy(),
        wholesale.campus.controller().policy(),
        "delta script must converge on the wholesale table"
    );
    assert_eq!(
        history(&delta.campus),
        history(&wholesale.campus),
        "delta and wholesale edits must be observably equivalent"
    );
}

/// Audit the applied edit incrementally: hand the cubes the
/// controller reports straight to `audit_delta` and require a clean
/// verdict once in-flight traffic settles.
#[test]
fn applied_deltas_pass_the_incremental_audit() {
    let mut s = scenario();
    s.campus.world.run_for(SimDuration::from_secs(2));

    let (deltas, _) = compile_delta(BASE, BASE_WITH_WEB_DENY).expect("compiles");
    let now = s.campus.world.kernel().now();
    let cubes = s.campus.controller_mut().apply_policy_delta(now, &deltas);
    assert!(!cubes.is_empty());
    let scoped: Vec<RuleDelta> = cubes.into_iter().map(RuleDelta::network_wide).collect();

    // Like `audit_settled`, but scoped: old-policy state is allowed
    // to drain for a few windows before the verdict must be clean.
    let mut violations: Vec<Violation> = Vec::new();
    for _ in 0..30 {
        s.campus.world.run_for(SimDuration::from_millis(100));
        let snap = Snapshot::of_campus(&s.campus);
        violations = audit_delta(&snap, &scoped);
        if violations.is_empty() {
            break;
        }
    }
    assert!(
        violations.is_empty(),
        "incremental audit of the applied delta should settle clean: {violations:?}"
    );
}
