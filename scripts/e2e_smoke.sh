#!/usr/bin/env bash
# The deterministic surface of the end-to-end benchmark, as a gate.
#
#   ./scripts/e2e_smoke.sh            # compare against BENCH_e2e.json
#   ./scripts/e2e_smoke.sh --record   # (re)write BENCH_e2e.json
#
# Runs the six `e2e` workloads once each at `--seed 1 --seconds 1
# --trace 0` and compares what a run computes on the *simulated* clock —
# `correct`, operations attempted and failed, `txn_p50_us`,
# `txn_p99_us`, `goodput_mbps`, `mitigation_ms` — exactly, as printed,
# against the committed BENCH_e2e.json: a change that moves one of them
# changed behaviour, whatever it did to speed. `peak_heap_mib` is a
# ceiling: a run fails when it peaks above the recorded value. The peak
# is deterministic per seed and binary (EXPERIMENTS.md E17), so a rise
# is a change's doing; `--record` accepts one, which CHANGES.md must
# name. The host-clock metrics (`sim_speed`, `setup_s`,
# `allocs_per_sim_s`) are printed beside the recorded ones and never
# asserted; judging those is the ten-pair procedure of e2e/README.md,
# not a one-second run's job.
#
# Then runs each workload again at `--trace 1` and compares every metric
# whose unit is `count` exactly, plus `host.alloc_bytes`: events,
# frames, timers and control messages dispatched, packet-ins,
# flow-mods, cache, monitor and SE counts, and the heap allocations
# the run made and the bytes they requested. A change that adds, drops
# or reorders one simulated event — an event queue that breaks a tie
# the other way — moves at least one of them, and so does one new
# allocation per frame on the data path (DESIGN.md §13): `campus_fig7`
# makes ~1.27 M `AsSwitch::on_frame` calls in its traced second.

set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(campus_fig7 flow_churn flow_rehit ids_payload chaos_4shard campus_wide)
ASSERTED=(correct attempted failed txn_p50_us txn_p99_us goodput_mbps mitigation_ms)
RECORDED=(sim_speed setup_s allocs_per_sim_s peak_heap_mib)
BASELINE=BENCH_e2e.json

# field LINE KEY: the value of KEY in one JSON line, whether it is
# written `"key": v` (the baseline) or `"key": {"value": v, ..}` (a run).
field() {
    sed -nE "s/.*\"$2\": (\{\"value\": )?([^,}]+).*/\2/p" <<<"$1"
}

# counts RUN: a `--trace 1` run's count metrics and its allocated bytes,
# as `"name": value` pairs in print order, joined by `, `.
counts() {
    grep -oE '"[a-z0-9_.]+": \{"value": [^,]+, "unit": "[^"]+"\}' <<<"$1" |
        grep -E '"unit": "count"\}$|^"host\.alloc_bytes"' |
        sed -E 's/\{"value": ([^,]+), .*/\1/' |
        paste -sd '|' | sed 's/|/, /g'
}

# e2e W TRACE: the last stdout line of one run. A run that fails its own
# output checks exits non-zero and still prints its line; `correct` is
# what reports it.
e2e() {
    cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 1 --trace "$2" | tail -n 1 || true
}

cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml

record=false
[ "${1:-}" = "--record" ] && record=true
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
count_lines=
{
    echo '{'
    echo '  "command": "e2e --workload W --seed 1 --seconds 1 --trace 0",'
    echo "  \"asserted\": \"${ASSERTED[*]}\","
    echo '  "ceiling": "peak_heap_mib",'
    echo '  "workloads": {'
} >"$out"
for i in "${!WORKLOADS[@]}"; do
    w=${WORKLOADS[$i]}
    run=$(e2e "$w" 0)
    got_counts=$(counts "$(e2e "$w" 1)")
    line="    \"$w\": {"
    for key in "${ASSERTED[@]}" "${RECORDED[@]}"; do
        line+="\"$key\": $(field "$run" "$key"), "
    done
    sep=,
    [ "$i" -eq $((${#WORKLOADS[@]} - 1)) ] && sep=
    echo "${line%, }}$sep" >>"$out"
    count_lines+="    \"$w\": {$got_counts}$sep"$'\n'
    $record && continue
    base=$(sed -n '/"workloads": {/,/^  }/p' "$BASELINE" | grep "\"$w\":") || {
        echo "e2e smoke: $w is not in $BASELINE" >&2
        exit 1
    }
    for key in "${ASSERTED[@]}"; do
        want=$(field "$base" "$key")
        got=$(field "$run" "$key")
        if [ "$want" != "$got" ]; then
            echo "e2e smoke: $w $key moved: $BASELINE has $want, this tree computes $got" >&2
            status=1
        fi
    done
    want=$(field "$base" peak_heap_mib)
    got=$(field "$run" peak_heap_mib)
    if awk -v got="$got" -v want="$want" 'BEGIN { exit !(got > want) }'; then
        echo "e2e smoke: $w peak_heap_mib rose: $BASELINE has $want, this tree peaks at $got" >&2
        status=1
    fi
    want_counts=$(sed -n '/"trace_counts": {/,/^  }/p' "$BASELINE" |
        sed -nE "s/^    \"$w\": \{(.*)\},?$/\1/p")
    if [ "$want_counts" != "$got_counts" ]; then
        echo "e2e smoke: $w --trace 1 counts moved ($BASELINE <, this tree >):" >&2
        diff <(sed 's/, /\n/g' <<<"$want_counts") <(sed 's/, /\n/g' <<<"$got_counts") >&2 || true
        status=1
    fi
    printf '    %-13s' "$w"
    for key in "${RECORDED[@]}"; do
        printf ' %s %.4g -> %.4g;' "$key" "$(field "$base" "$key")" "$(field "$run" "$key")"
    done
    echo
done
{
    echo '  },'
    echo '  "trace_command": "e2e --workload W --seed 1 --seconds 1 --trace 1",'
    echo '  "trace_asserted": "every metric of unit count, and host.alloc_bytes",'
    echo '  "trace_counts": {'
    printf '%s' "$count_lines"
    printf '  }\n}\n'
} >>"$out"
if $record; then
    cp "$out" "$BASELINE"
    echo "e2e smoke: recorded $BASELINE"
elif [ "$status" -eq 0 ]; then
    echo "e2e smoke: the deterministic surface matches $BASELINE, peak heap within its ceiling (host-clock metrics above: recorded -> now, only peak_heap_mib asserted)"
fi
exit "$status"
