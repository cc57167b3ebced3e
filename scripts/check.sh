#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   ./scripts/check.sh
#
# Runs the release build, every suite in the workspace once, the
# end-to-end benchmark's suite and smoke, the smoke benches and
# examples, clippy with warnings denied, and the formatting check,
# stopping at the first failure; prints its own wall time at the end.

set -euo pipefail
cd "$(dirname "$0")/.."
gate_start=$(date +%s)

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release
# Static analysis v3 (DESIGN.md §6, §13): workspace call graph +
# inter-procedural summaries — determinism (LS1xx), panic paths
# (LS2xx) through helpers, wire-input taint (LS301) across calls,
# transitive hot-path allocation (LS401), and the concurrency family
# (LS501 shared state, LS502 lock order, LS503 unordered reduction);
# zero unannotated findings allowed. The JSON finding stream is
# archived for diffing across PRs, the full-workspace pass must stay
# under its 5 s wall-time budget, and a second run must reproduce
# LINT.json byte-for-byte (the analysis is deterministic by design).
echo "==> cargo run -q -p livesec-lint --release -- --json"
# Warm the per-package build first: `cargo run -p` resolves features
# per package and can recompile even after a workspace build, and the
# 5 s budget is for the *analysis*, not the compiler.
cargo build -q -p livesec-lint --release
lint_start=$(date +%s%N)
cargo run -q -p livesec-lint --release -- --json | tee LINT.json
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "    livesec-lint wall time: ${lint_elapsed_ms} ms"
if [ "$lint_elapsed_ms" -ge 5000 ]; then
    echo "livesec-lint exceeded its 5 s budget (${lint_elapsed_ms} ms)" >&2
    exit 1
fi
test -s LINT.json
cargo run -q -p livesec-lint --release -- --json > LINT2.json
cmp LINT.json LINT2.json || {
    echo "livesec-lint output is not deterministic across runs" >&2
    exit 1
}
rm -f LINT2.json
# The last LINT.json line is the graph summary
# ({"findings":..,"files":..,"fns":..,"edges":..,"hot_fns":..});
# prepend the measured wall time and archive as the lint bench.
lint_summary=$(tail -n 1 LINT.json)
printf '{"wall_ms":%s,%s\n' "$lint_elapsed_ms" "${lint_summary#\{}" > BENCH_lint.json
test -s BENCH_lint.json
# Header-space invariant verifier (DESIGN.md §8): snapshot the
# emitted flow tables of the baseline scenario and prove the eight
# dataplane invariants (blocked-unreachable, no loops, no blackholes,
# waypoint enforcement, fast-pass freshness, no silent shadowing,
# exactly-one-shard coverage, quarantine isolation).
run cargo run -q -p livesec-verify --release -- --scenario baseline
# Every suite, once: `--workspace` covers the root package's
# integration tests and each crate's own unit, property and model
# tests (the tier-1 `cargo test -q` runs only the former). Why each is
# in the gate:
# - tests/chaos, tests/reconciliation: the campus under scheduled
#   partitions, crashes and frame corruption over fixed seeds — zero
#   panics, clean health-stat invariants, byte-identical same-seed
#   histories.
# - tests/determinism, shard_ring, shard_handoff, shard_failover: the
#   sharded control plane (DESIGN.md §9) — a 1-shard plane
#   byte-identical to the plain controller, shards 1/2/4 identical
#   modulo shard tags, ring properties, cross-shard handoff, mid-attack
#   shard failover with a clean merged audit.
# - tests/accountability (DESIGN.md §11): each dataplane fault kind is
#   detected, localized to exactly the compromised switch, quarantined
#   and re-steered around, at 1 and 4 shards, honest switches never
#   blamed.
# - tests/policy_delta: applying compiled deltas mid-traffic equals the
#   wholesale recompile byte for byte, spares untouched warm cache
#   classes, and passes the scoped incremental audit.
# - livesec (core): the engine stages and `revalidate` against a fresh
#   `decide`, N-shard cache coherence and the features-reply handshake
#   without a campus, `prop_core`, `end_to_end`; livesec-net: the
#   wire/packet codecs.
# - livesec-openflow, livesec-switch: the flow-mod write path — the
#   table's differential model test and the hostile-timeout
#   regressions.
# - livesec-conntrack, livesec-sim, livesec-services: the per-frame data
#   path (EXPERIMENTS.md E17/E18) — bounded conntrack indexes, the
#   kernel's port slots, the scan kernel's differential model test.
# - livesec-policy, livesec-verify (DESIGN.md §14, §8): parser recovery,
#   shadow analysis, delta-convergence proptests, incremental-
#   verification agreement.
# - livesec-lint: the analyzer's own rules, fixtures and the
#   zero-unannotated-findings check over this workspace.
run cargo test --workspace -q
# The end-to-end benchmark's own suite: on all six workloads a traced
# rep must dispatch the events and record the history of an untraced
# one, so a data-path change that adds, drops or reorders one simulated
# event fails here. (e2e/ is a package outside the workspace.)
run cargo test -q --offline --manifest-path e2e/Cargo.toml
# And its deterministic surface (ROADMAP 4c): all six workloads at seed
# 1 must score the operations and compute the simulated-clock metrics
# BENCH_e2e.json records, exactly; wall-clock metrics are printed beside
# the recorded ones, never asserted.
run ./scripts/e2e_smoke.sh
# Scale-out smoke bench: 100k packet-ins partitioned over 1/2/4/8
# shards; must clear >=3x throughput at 4 shards and (re)write
# BENCH_shards.json.
run cargo bench -q -p livesec-bench --bench shard_scaling -- --smoke
test -s BENCH_shards.json
# Post-quarantine dataplane must audit clean, quarantine isolation
# (invariant 8) included.
run cargo run -q -p livesec-verify --release -- --scenario tamper-quarantine
# Accountability hot paths: attestation tagging + detector replay;
# (re)writes BENCH_accountability.json, every forged attestation caught.
run cargo bench -q -p livesec-bench --bench accountability -- --smoke
test -s BENCH_accountability.json
# Policy end-to-end: load .lsp, run traffic, live-edit the policy,
# apply the delta script, audit incrementally.
run cargo run -q --release --example policy
# Delta-compile + incremental-audit smoke bench: the single-rule delta
# on a 1000-switch campus must clear the >=10x work-ratio floor and
# (re)write BENCH_policy.json.
run cargo bench -q -p livesec-bench --bench policy -- --smoke
test -s BENCH_policy.json
# Stateful-enforcement end-to-end: SYN flood detected by conntrack,
# source-wide drop installed at the ingress, flood stops counting —
# while a legitimate fast-passed transfer completes alongside.
run cargo run -q --release --example stateful_firewall
# Accountability end-to-end: mid-attack rule tamper -> detect,
# localize, quarantine, re-steer, then release and rejoin.
run cargo run -q --release --example accountability
run cargo clippy --workspace -- -D warnings
run cargo fmt --check

echo "==> all checks passed in $(( $(date +%s) - gate_start )) s"
