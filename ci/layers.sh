#!/usr/bin/env bash
# The performance ledger: BENCH_layers.json, one row per perfbench run.
#
#   ci/layers.sh [--seconds S] [OUT [WORKLOAD ...]]
#
# For each workload (default: ls-5k, agglo-partial-5k, sampling-50k) it runs
#
#   * one `--trace 0` run at the detected SIMD tier: the end-to-end metrics
#     (`job_s`, `cost_ratio`, `peak_rss_mb`, `setup_s`);
#   * one `--trace 1` run per SIMD tier among auto, sse2 and swar, forced
#     with AGGCLUST_SIMD: the per-layer metrics (kernel ns per pair, build,
#     algorithm loop, consensus tail, 2-thread build and refine speedups).
#
# A forced tier the host cannot run falls back to detection; such a run
# repeats the `auto` row, so it is dropped. Each row holds perfbench's
# context line (its `host` block names the CPU features and
# `simd_selected`) and its result line, verbatim:
#
#   {"context": {...}, "result": {"correct": true, ...}}
#
# S defaults to 38 (BENCHMARK.json's run_seconds), OUT to BENCH_layers.json.
# The file is replaced only when every run passed its checks.
set -euo pipefail

cd "$(dirname "$0")/.."
SECONDS_PER_RUN=38
if [ "${1:-}" = "--seconds" ]; then
    SECONDS_PER_RUN=$2
    shift 2
fi
OUT=${1:-BENCH_layers.json}
shift || true
WORKLOADS=("$@")
[ ${#WORKLOADS[@]} -gt 0 ] || WORKLOADS=(ls-5k agglo-partial-5k sampling-50k)

PERFBENCH=(cargo run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml --)
cargo build --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml

ROWS=$(mktemp)
trap 'rm -f "$ROWS"' EXIT

# run TIER TRACE WORKLOAD: append one row; TIER "" leaves AGGCLUST_SIMD unset.
run() {
    local tier=$1 trace=$2 workload=$3 lines context selected
    echo "layers: $workload --trace $trace AGGCLUST_SIMD=${tier:-<unset>}" >&2
    lines=$(env -u AGGCLUST_SIMD ${tier:+AGGCLUST_SIMD=$tier} "${PERFBENCH[@]}" \
        --workload "$workload" --seed 1 --seconds "$SECONDS_PER_RUN" --trace "$trace" \
        | tail -n 2)
    context=$(head -n 1 <<<"$lines")
    selected=$(grep -o '"simd_selected":"[a-z0-9]*"' <<<"$context" | cut -d'"' -f4)
    if [ -n "$tier" ] && [ "$tier" != auto ] && [ "$tier" != "$selected" ]; then
        echo "layers: tier $tier is not available here (ran $selected); row dropped" >&2
        return
    fi
    printf '{"context": %s, "result": %s}\n' "$context" "$(tail -n 1 <<<"$lines")" >>"$ROWS"
}

for workload in "${WORKLOADS[@]}"; do
    run "" 0 "$workload"
    for tier in auto sse2 swar; do
        run "$tier" 1 "$workload"
    done
done

{
    echo "["
    sed '$!s/$/,/' "$ROWS"
    echo "]"
} >"$OUT"
echo "layers: wrote $(wc -l <"$ROWS") rows to $OUT" >&2
