//! The deterministic floor under the `policy` bench's fixtures: a
//! single-rule edit compiles to one delta that converges, and the
//! 1000-switch snapshot audits clean, in full and under every
//! single-rule delta, which scopes the incremental audit to 1/1600 of
//! the items the full audit walks. The bench times the same
//! operations; only these facts are asserted.

#[path = "support/policy.rs"]
mod fixtures;

use fixtures::{build_snapshot, rulebook, single_rule_cube, RULES, SWITCHES};
use livesec_policy::{compile, diff};
use livesec_verify::{audit, audit_delta, EcIndex, RuleDelta};

#[test]
fn a_single_rule_edit_is_one_delta_that_converges() {
    let old = compile(&rulebook(RULES, None))
        .expect("rulebook compiles")
        .table;
    let new = compile(&rulebook(RULES, Some(RULES / 2)))
        .expect("edited rulebook compiles")
        .table;
    let script = diff(&old, &new);
    assert_eq!(script.len(), 1, "{script:?}");
    let mut migrated = old;
    for d in &script {
        migrated.apply_delta(d);
    }
    assert_eq!(migrated, new, "delta script must converge");
}

#[test]
fn a_single_rule_delta_scopes_the_audit_to_one_sixteen_hundredth() {
    let snap = build_snapshot(SWITCHES);
    assert!(
        audit(&snap).is_empty(),
        "synthetic snapshot must audit clean"
    );
    let idx = EcIndex::build(&snap);
    assert_eq!(idx.total_items(), 3_200);
    for d in 1..=SWITCHES {
        let delta = [RuleDelta::network_wide(single_rule_cube(d))];
        let scope = idx.touched(&delta);
        assert_eq!(
            idx.total_items(),
            1_600 * scope.len(),
            "the delta on switch {d} touches {} items",
            scope.len()
        );
        assert!(
            audit_delta(&snap, &delta).is_empty(),
            "the scoped audit for switch {d} must be clean too"
        );
    }
}
