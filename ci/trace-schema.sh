#!/usr/bin/env bash
# Observability acceptance checks (ISSUE 4):
#
#   1. Run an n = 2000 aggregation with --trace-out/--metrics-out and
#      validate both machine-readable outputs with `aggclust-trace check`:
#      every trace line is a JSON object of type event/span_start/span_end
#      with the documented keys, span ends pair with starts, and the run
#      report is {"schema":"aggclust-run-report-v1","metrics":{...}} with
#      every counter a non-negative integer (the rules are listed in
#      crates/trace/src/check.rs).
#   2. Check the paper's Figure 5 scaling claim on the counters themselves:
#      at n = 5000, SAMPLING's distance-oracle evaluations stay O(n·s)
#      (≤ 5% of n²) while BALLS pays the full Θ(n²).
#   3. Validate the host block (DESIGN.md §6g): every run report carries
#      {"host":{arch,os,cpus,features,simd_requested,simd_selected}}, the
#      kernels_dispatch_tier metric is a known tier name matching the
#      host's selected tier, and a run forced to AGGCLUST_SIMD=swar
#      reports exactly that tier.
#
# `check` prints a passing report as one 'path value' line per leaf
# (`metrics.spill_tiles_read 12`); each scenario's expectations below are
# awk conditions over those lines.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/aggclust
TRACE_BIN=target/release/aggclust-trace
if [ ! -x "$BIN" ]; then
    cargo build --release -q -p aggclust-cli
fi
if [ ! -x "$TRACE_BIN" ]; then
    cargo build --release -q -p aggclust-trace
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Planted 9-block structure with deterministic disagreements (same family
# as ci/kill-resume.sh) at two sizes.
gen_input() {
    awk -v n="$1" 'BEGIN {
      for (v = 0; v < n; v++) {
        base = v % 9
        b = (base + (v % 5 == 0)) % 9
        c = (base + (v % 7 == 0)) % 9
        printf "%d,%d,%d\n", base, b, c
      }
    }'
}
gen_input 2000 > "$WORK/in2000.csv"
gen_input 5000 > "$WORK/in5000.csv"

# expect FILE CONDITION MESSAGE: the flattened report FILE, loaded as
# v[path] = value, must satisfy the awk CONDITION.
expect() {
    awk -v msg="$3" "{ v[\$1] = \$2 } END { if (!($2)) { print \"FAIL: \" msg; exit 1 } }" "$1"
}

# value FILE PATH: the flattened report's value at PATH.
value() {
    awk -v path="$2" '$1 == path { print $2 }' "$1"
}

echo "== n = 2000 run with --trace-out / --metrics-out =="
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --trace-out "$WORK/trace.jsonl" --metrics-out "$WORK/report.json" \
    --output /dev/null --log-level error

echo "== trace + report schema validation =="
"$TRACE_BIN" check --report "$WORK/report.json" --trace "$WORK/trace.jsonl" \
    > "$WORK/report.txt"
R="$WORK/report.txt"
expect "$R" 'v["metrics.ls_nodes_visited"] > 0' "LOCALSEARCH counters did not fire"
expect "$R" 'v["metrics.oracle_dense_evals"] > 0' "oracle counters did not fire"
expect "$R" 'v["metrics.oracle_packed_evals"] > 0' \
    "packed SWAR kernel counters did not fire -- dense build not on the packed path?"
expect "$R" 'v["metrics.kernels_row_batches"] > 0' \
    "kernels_row_batches did not fire -- banded fill not batching rows?"
# Timings (ISSUE 9): the spans this workload must traverse are present with
# real time attributed, and the allocation nests inside the dense build.
# cost_eval and lower_bound name the consensus tail's two O(n^2) sums.
for span in local_search dense_build condensed_alloc cost_eval lower_bound; do
    expect "$R" "(\"timings.$span.count\" in v)" "timings: $span span missing"
done
expect "$R" 'v["timings.local_search.total_ns"] > 0' "local_search span untimed"
expect "$R" 'v["timings.dense_build.total_ns"] >= v["timings.condensed_alloc.total_ns"]' \
    "condensed_alloc must nest inside dense_build"
expect "$R" '!("faults.0" in v)' "clean run recorded injections"
echo "trace OK: $(value "$R" trace.events) events, $(value "$R" trace.spans) balanced spans;" \
    "host OK: $(value "$R" host.arch)/$(value "$R" host.cpus)cpu" \
    "tier=$(value "$R" metrics.kernels_dispatch_tier)"

echo "== n = 5000 scaling contrast: SAMPLING O(n*s) vs BALLS Theta(n^2) =="
"$BIN" aggregate --input "$WORK/in5000.csv" --sample 200 --no-refine \
    --metrics-out "$WORK/sampling.json" --output /dev/null --log-level error
"$BIN" aggregate --input "$WORK/in5000.csv" --algorithm balls --no-refine \
    --metrics-out "$WORK/balls.json" --output /dev/null --log-level error
"$TRACE_BIN" check --report "$WORK/sampling.json" > "$WORK/sampling.txt"
"$TRACE_BIN" check --report "$WORK/balls.json" > "$WORK/balls.txt"
echo "SAMPLING: $(value "$WORK/sampling.txt" metrics.oracle_evals_total) oracle evals;" \
    "BALLS: $(value "$WORK/balls.txt" metrics.oracle_evals_total); n^2 = 25000000"
expect "$WORK/sampling.txt" 'v["metrics.oracle_evals_total"] <= 0.05 * 5000 * 5000' \
    "SAMPLING oracle evals exceed 5% of n^2"
expect "$WORK/balls.txt" 'v["metrics.oracle_evals_total"] >= 0.5 * 5000 * 5000' \
    "BALLS oracle evals below n^2/2 -- is the counter wired?"
echo "OK: the Figure 5 scaling claim holds on the counters"

echo "== spilled run: spill counters must fire and labels must match =="
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --no-refine --output "$WORK/unconstrained.txt" --log-level error
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --no-refine --mem-budget-mb 1 --spill-dir "$WORK/tiles" \
    --metrics-out "$WORK/spill.json" --output "$WORK/spilled.txt" \
    --log-level error
cmp "$WORK/unconstrained.txt" "$WORK/spilled.txt"
"$TRACE_BIN" check --report "$WORK/spill.json" > "$WORK/spill.txt"
expect "$WORK/spill.txt" 'v["metrics.spill_tiles_written"] > 0' "spill_tiles_written did not fire"
expect "$WORK/spill.txt" 'v["metrics.spill_tiles_read"] > 0' "spill_tiles_read did not fire"
awk '$1 ~ /^metrics\.spill_bytes_hist\./ { sum += $2 } END { exit !(sum > 0) }' \
    "$WORK/spill.txt" || { echo "FAIL: spill_bytes_hist did not fire"; exit 1; }
echo "OK: spilled run wrote $(value "$WORK/spill.txt" metrics.spill_tiles_written) tiles," \
    "read $(value "$WORK/spill.txt" metrics.spill_tiles_read)," \
    "evicted $(value "$WORK/spill.txt" metrics.spill_evictions); labels match the dense run"

echo "== forced tier: AGGCLUST_SIMD=swar must be honored and reported =="
AGGCLUST_SIMD=swar "$BIN" aggregate --input "$WORK/in2000.csv" \
    --algorithm local-search --metrics-out "$WORK/swar.json" \
    --output /dev/null --log-level error
"$TRACE_BIN" check --report "$WORK/swar.json" > "$WORK/swar.txt"
expect "$WORK/swar.txt" 'v["host.simd_requested"] == "swar"' "AGGCLUST_SIMD=swar not requested"
expect "$WORK/swar.txt" 'v["host.simd_selected"] == "swar"' "AGGCLUST_SIMD=swar not selected"
expect "$WORK/swar.txt" 'v["metrics.kernels_dispatch_tier"] == "swar"' \
    "dispatch tier ignored AGGCLUST_SIMD=swar"
echo "OK: AGGCLUST_SIMD=swar selected, recorded in host block and metrics"

echo "== faulted run: injections must land in the report's faults array =="
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --no-refine --fault-plan "cli.input=delay:ms=5" \
    --metrics-out "$WORK/faulted.json" --output /dev/null --log-level error
# `check` has already matched the faults array against faults_injected.
"$TRACE_BIN" check --report "$WORK/faulted.json" > "$WORK/faulted.txt"
expect "$WORK/faulted.txt" '("faults.0" in v)' "armed run recorded no injections"
grep -Eq '^faults\.[0-9]+ .*cli\.input.*delay' "$WORK/faulted.txt" || {
    echo "FAIL: expected a cli.input delay injection, got:"
    grep '^faults\.' "$WORK/faulted.txt"
    exit 1
}
echo "OK: $(value "$WORK/faulted.txt" metrics.faults_injected) injections embedded, matching faults_injected"

echo "== --progress: heartbeats render as single stderr lines =="
# The first heartbeat fires 200 ms into LOCALSEARCH, which on the dense
# matrix can finish sooner than that; a 1 MB cap puts the descent on the
# O(m)-per-read lazy oracle, well past the first heartbeat on a fast host.
"$BIN" aggregate --input "$WORK/in5000.csv" --algorithm local-search \
    --mem-budget-mb 1 --no-refine --threads 1 --progress --output /dev/null \
    --log-level error 2> "$WORK/progress.txt"
grep -q "^progress: local_search " "$WORK/progress.txt"
awk '!/^progress: [a-z_]+ [0-9]+\/[0-9]+ / { print "bad progress line: " $0; bad = 1 }
     END { exit bad }' "$WORK/progress.txt"
echo "OK: $(wc -l < "$WORK/progress.txt") progress heartbeats, format valid"
