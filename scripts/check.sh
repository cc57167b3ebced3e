#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   ./scripts/check.sh
#
# Runs the release build, every suite in the workspace once, the
# end-to-end benchmark's suite and smoke, every bench body once, the
# examples, clippy and rustdoc with warnings denied, and the formatting
# check, stopping at the first failure; prints its own wall time at the
# end. The only tracked file it rewrites is LINT.json, which is
# deterministic.

set -euo pipefail
cd "$(dirname "$0")/.."
gate_start=$(date +%s)

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release
# Static analysis (DESIGN.md §13): the rules clippy cannot express,
# over a workspace call graph with inter-procedural summaries — float
# accumulation (LS104), panic paths through helpers (LS202), wire-input
# taint across calls (LS301) and transitive hot-path allocation
# (LS401); zero unannotated findings allowed. Clocks, entropy, hash
# containers and unwraps are clippy's (clippy.toml, run below). The
# JSON finding stream, ending in the graph summary line, is archived
# for diffing across PRs and the full-workspace pass must stay under
# its 5 s wall-time budget; that the output is byte-identical across
# runs is asserted by crates/lint/tests/workspace.rs in the test step.
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
#   modulo shard tags, ring properties and the 4-shard scale-out floor
#   (no shard owns more than 333 of 1 000 switches), cross-shard
#   handoff, mid-attack shard failover with a clean merged audit.
# - tests/accountability (DESIGN.md §11): each dataplane fault kind is
#   detected, localized to exactly the compromised switch, quarantined
#   and re-steered around, at 1 and 4 shards, honest switches never
#   blamed. livesec-bench's tests/accountability: the bench fixtures'
#   honest replay verifies every chain and leaves none pending, and
#   every forged attestation is caught.
# - tests/policy_delta: applying compiled deltas mid-traffic equals the
#   wholesale recompile byte for byte, spares untouched warm cache
#   classes, and passes the scoped incremental audit. livesec-bench's
#   tests/policy: a one-rule edit is one converging delta, and the
#   1 000-switch snapshot audits clean, in full and under each
#   single-rule delta, which scopes the audit to exactly 1/1600 of it.
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
# Every bench body, one untimed iteration each (the criterion stub's
# test mode), so a bench that no longer builds or panics fails here.
run cargo test -q --workspace --bench '*'
# Post-quarantine dataplane must audit clean, quarantine isolation
# (invariant 8) included.
run cargo run -q -p livesec-verify --release -- --scenario tamper-quarantine
# Policy end-to-end: load .lsp, run traffic, live-edit the policy,
# apply the delta script, audit incrementally.
run cargo run -q --release --example policy
# Stateful-enforcement end-to-end: SYN flood detected by conntrack,
# source-wide drop installed at the ingress, flood stops counting —
# while a legitimate fast-passed transfer completes alongside.
run cargo run -q --release --example stateful_firewall
# Accountability end-to-end: mid-attack rule tamper -> detect,
# localize, quarantine, re-steer, then release and rejoin.
run cargo run -q --release --example accountability
# Tests, benches and examples included: clippy.toml's disallowed
# clocks, RandomState and std hash containers are the determinism
# rules (DESIGN.md §6), and the production crates' unwrap/expect
# warnings only exempt #[cfg(test)] code.
run cargo clippy --workspace --all-targets -- -D warnings
# Public docs must build clean: a deleted or private item a doc still
# links to, or an ambiguous link, fails here. The vendored stubs are
# not ours to document.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps \
    --exclude bytes --exclude criterion --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json
run cargo fmt --check

echo "==> all checks passed in $(( $(date +%s) - gate_start )) s"
