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
# changed behaviour, whatever it did to speed. The host-clock metrics
# (`sim_speed`, `setup_s`, `allocs_per_sim_s`, `peak_heap_mib`) are
# printed beside the recorded ones and never asserted; judging those is
# the ten-pair procedure of e2e/README.md, not a one-second run's job.

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

cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml

record=false
[ "${1:-}" = "--record" ] && record=true
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
{
    echo '{'
    echo '  "command": "e2e --workload W --seed 1 --seconds 1 --trace 0",'
    echo "  \"asserted\": \"${ASSERTED[*]}\","
    echo '  "workloads": {'
} >"$out"
for i in "${!WORKLOADS[@]}"; do
    w=${WORKLOADS[$i]}
    # A run that fails its own output checks exits non-zero and still
    # prints its line; `correct` below is what reports it.
    run=$(cargo run --release --offline --quiet --manifest-path e2e/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1) || true
    line="    \"$w\": {"
    for key in "${ASSERTED[@]}" "${RECORDED[@]}"; do
        line+="\"$key\": $(field "$run" "$key"), "
    done
    sep=,
    [ "$i" -eq $((${#WORKLOADS[@]} - 1)) ] && sep=
    echo "${line%, }}$sep" >>"$out"
    $record && continue
    base=$(grep "\"$w\":" "$BASELINE") || {
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
    printf '    %-13s' "$w"
    for key in "${RECORDED[@]}"; do
        printf ' %s %.4g -> %.4g;' "$key" "$(field "$base" "$key")" "$(field "$run" "$key")"
    done
    echo
done
printf '  }\n}\n' >>"$out"
if $record; then
    cp "$out" "$BASELINE"
    echo "e2e smoke: recorded $BASELINE"
elif [ "$status" -eq 0 ]; then
    echo "e2e smoke: the deterministic surface matches $BASELINE (host-clock metrics above: recorded -> now, not asserted)"
fi
exit "$status"
