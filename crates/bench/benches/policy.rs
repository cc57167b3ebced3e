//! `policy`: the declarative-policy toolchain at sizes no `e2e`
//! workload reaches (DESIGN.md §14) — a 200-rule `.lsp` program
//! compiled from scratch against the delta path for a one-rule edit
//! (`diff` plus `apply_delta` on a copy of the old table, the copy
//! included), and the full audit of a 1000-switch snapshot against
//! `audit_delta` scoped to one single-rule cube. The work ratio and the
//! delta's convergence are asserted by `tests/policy.rs` over the same
//! fixtures.

#[path = "../tests/support/policy.rs"]
mod fixtures;

use criterion::{criterion_group, criterion_main, Criterion};
use fixtures::{build_snapshot, rulebook, single_rule_cube, RULES, SWITCHES};
use livesec_policy::{compile, diff};
use livesec_verify::{audit, audit_delta, RuleDelta};

fn bench_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy");
    let new_src = rulebook(RULES, Some(RULES / 2));
    let old = compile(&rulebook(RULES, None))
        .expect("rulebook compiles")
        .table;
    let new = compile(&new_src).expect("edited rulebook compiles").table;
    g.bench_function("compile_full", |b| b.iter(|| compile(&new_src)));
    g.bench_function("diff_apply", |b| {
        b.iter(|| {
            let mut migrated = old.clone();
            for d in &diff(&old, &new) {
                migrated.apply_delta(d);
            }
            migrated
        })
    });

    let snap = build_snapshot(SWITCHES);
    g.bench_function("audit_full", |b| b.iter(|| audit(&snap)));
    let mut i = 0u64;
    g.bench_function("audit_delta_single_rule", |b| {
        b.iter(|| {
            i += 1;
            let cube = single_rule_cube(1 + (i * 7) % SWITCHES);
            audit_delta(&snap, &[RuleDelta::network_wide(cube)])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_policy);
criterion_main!(benches);
