#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   ./scripts/check.sh
#
# Runs the release build, every suite in the workspace once, the
# end-to-end benchmark's suite and smoke, the paper's evaluation against
# its record, every bench body once, the examples, clippy and rustdoc
# with warnings denied, and the formatting check, stopping at the first
# failure; prints its own wall time at the end. It rewrites no tracked
# file. The e2e smoke also holds each workload's `peak_heap_mib` to its
# recorded value as a ceiling (EXPERIMENTS.md E42).

set -euo pipefail
cd "$(dirname "$0")/.."
gate_start=$(date +%s)

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release
# Every suite, once: `--workspace` covers the root package's
# integration tests and each crate's own unit, property and model
# tests (the tier-1 `cargo test -q` runs only the former). Why each is
# in the gate:
# - tests/paper_bounds (EXPERIMENTS.md E1–E11): the paper's §V bounds,
#   each beside the paper's words, on the recorded evaluation
#   BENCH_paper.txt (which the `exp` step below checks is current), and
#   E3's proto-id "at least 2 Gbps" as a known miss that must still miss.
# - tests/verify_audit (DESIGN.md §8): the header-space verifier proves
#   the dataplane invariants on the baseline and service-chain
#   campuses' emitted flow tables, and refutes a broken snapshot of
#   each invariant with a witness packet — including a block leaked by
#   an entry's second output, an ICMP path a transport rewrite the
#   switch does not apply would divert, a loop only of EtherTypes the
#   switch punts (no loop), and a fast-pass entry no record backs; a
#   record keyed by the original direction backs both directions'
#   fast-pass entries.
# - tests/conntrack_fastpass (DESIGN.md §7): the fast-pass's lifecycle
#   under policy, topology and delta changes — each tears down the
#   fast-passes it stales where it is made, a delta only those it
#   touches — which no e2e workload exercises (none runs a firewall);
#   plus the bypass itself, its determinism, SYN-flood blocking and a
#   switch restart.
# - tests/decoder_fuzz (DESIGN.md §13): every wire decoder over seeded
#   mutations of valid encodings — a typed error or Ok, no panic, and
#   allocation within a bound linear in the input length.
# - tests/codec_alloc (DESIGN.md §4c, §13): the allocation floor of the
#   control channel and of a flow set-up, counted exactly. `encode` is
#   one allocation per frame, `encode_into` none on a warm buffer. On
#   the switch: a warm table files exact entries without allocating, a
#   packet-in is one allocation into an empty buffer and none into a
#   warm one, a batch of adds on a warm World costs nothing, its barrier
#   reply included, while every list fits inline (one per spilled
#   list), a packet-out only the packet it emits. On the controller: a
#   packet-in is read without a copy, `compile_path` is one allocation,
#   a one-service chained `engine::decide` on a warm store seven. An
#   audit's flow-stats reply is written from the table and read in
#   place with no allocation on either side.
# - tests/discovery (DESIGN.md §4b): discovery's packet-ins as
#   deterministic counts. A campus converges on its full mesh within
#   two LLDP rounds and then probes nothing; a crash-restart, an uplink
#   going down or up, or a late switch re-arms one round. A campus
#   with users brings up within discovery's budget plus one packet-in
#   per host: each switch's uplink guard drops the legacy fabric's
#   echoes of the controller's location announcements, which used to
#   cost hosts × switches. Once converged, the event queue holds at
#   most four slots per pending event plus its floor.
# - tests/chaos, tests/reconciliation: the campus under scheduled
#   partitions, crashes and frame corruption over fixed seeds — zero
#   panics, clean health-stat invariants, byte-identical same-seed
#   histories. Both end their fault runs with the NIB checks of
#   tests/support/switch_book.rs (as do accountability, shard_failover
#   and mobility): every service element the controller knows of,
#   online or not, is located, and every located host sits on a
#   registered, unquarantined switch.
# - tests/determinism, shard_ring, shard_handoff, shard_failover: the
#   sharded control plane (DESIGN.md §9) — same-seed histories
#   byte-identical, histories at shards 1/2/4 byte-identical to the
#   plain controller's on the fault-free campus and under the default
#   chaos plan with attestations on, ring properties and the 4-shard
#   scale-out floor (no shard owns more than 333 of 1 000 switches),
#   cross-shard handoff paths that audit clean in full and under a
#   mid-run policy delta, mid-attack shard failover with a clean merged
#   audit.
# - tests/accountability (DESIGN.md §11): each dataplane fault kind is
#   detected, localized to exactly the compromised switch, quarantined
#   and re-steered around, at 1 and 4 shards, honest switches never
#   blamed. livesec-bench's tests/accountability: the bench fixtures'
#   honest replay verifies every chain and leaves none pending, and
#   every forged attestation is caught.
# - tests/policy_delta: applying compiled deltas mid-traffic equals the
#   wholesale recompile byte for byte and passes the scoped incremental
#   audit. Its scenario runs
#   no firewall, so a delta's fast-pass teardown is
#   tests/conntrack_fastpass's. livesec-bench's
#   tests/policy: a one-rule edit is one converging delta, and the
#   1 000-switch snapshot audits clean, in full and under each
#   single-rule delta, which scopes the audit to exactly 1/1600 of it.
# - livesec (core): the engine's decisions and the controller's
#   handlers (flow-removed accounting, the repair guard, the SYN-flood
#   block, the features-reply handshake, a dead switch's id bound to
#   its first channel, an audit in flight lasting one registration,
#   the dpid-ordered liveness sweep, a quarantine and its blocks
#   outliving the session, a heartbeat locating the element it brings
#   back online, the uplink guard sent when LLDP names the uplink,
#   moved with it and reinstalled by a rejoin audit) without a campus; `prop_core`
#   (steering programs against an abstract fabric, balancer and policy
#   semantics, the decision-cache module's round trip); `end_to_end`;
#   livesec-net: the wire/packet codecs.
# - livesec-openflow, livesec-switch: the flow-mod write path — the
#   table's differential model test (whose every step also checks
#   `winner` over the table's install order against its hash lookup)
#   and the hostile-timeout regressions — and the key walk: at every
#   output, `apply_actions_to_key` emits the lookup key of the frame
#   `apply_actions_owned` emits.
# - livesec-conntrack, livesec-sim, livesec-services: the per-frame data
#   path (EXPERIMENTS.md E17/E18) — bounded conntrack indexes, the
#   kernel's port slots, the event queue's model test (firing order,
#   and its memory bound after every step, compaction included),
#   link arithmetic against its u128 formula, the scan
#   kernel's differential model test.
# - livesec-policy, livesec-verify (DESIGN.md §14, §8): parser recovery,
#   shadow analysis, delta-convergence proptests, incremental-
#   verification agreement (the scoped audit equals the full one on
#   touched classes of a clean snapshot, one with a fast-pass entry no
#   record backs, and one with a forged block).
run cargo test --workspace -q
# The end-to-end benchmark's own suite: on all six workloads a traced
# rep must dispatch the events and record the history of an untraced
# one, so a data-path change that adds, drops or reorders one simulated
# event fails here. (e2e/ is a package outside the workspace.)
run cargo test -q --offline --manifest-path e2e/Cargo.toml
# And its deterministic surface (ROADMAP 4c): all six workloads at seed
# 1 must score the operations and compute the simulated-clock metrics
# BENCH_e2e.json records, exactly, and at `--trace 1` every count and
# the run's heap allocations and bytes (the hot-path allocation gate,
# DESIGN.md §13). `peak_heap_mib`, deterministic per seed and binary,
# must not exceed its recorded value; the other wall-clock metrics are
# printed beside the recorded ones, never asserted.
run ./scripts/e2e_smoke.sh
# The paper's evaluation, E1–E11 (EXPERIMENTS.md): every number §V
# reports is asserted exactly. `exp` prints one `E<id>.<name> <value>`
# line per number, deterministic in release, and a fresh run must equal
# the recorded BENCH_paper.txt byte for byte, so a change that moves a
# paper number fails here naming the moved lines. The paper's own
# bounds on those numbers (≥ 8 Gbps IDS, min-load ≤ 5 %, ≈ +10 % RTT,
# …) live in tests/paper_bounds.rs, which reads the same file. To
# re-record after a deliberate change:
#   cargo run --release -p livesec-bench --bin exp > BENCH_paper.txt
echo "==> cargo run --release -p livesec-bench --bin exp | diff BENCH_paper.txt -"
cargo run -q --release -p livesec-bench --bin exp | diff -u BENCH_paper.txt -
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
# rules (DESIGN.md §6), and the production crates' unwrap/expect and
# indexing warnings (the wire decoders warn on indexing too; DESIGN.md
# §13) only exempt #[cfg(test)] code.
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
