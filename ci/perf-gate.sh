#!/usr/bin/env bash
# Perf-regression gate (ISSUE 9):
#
#   1. Run each pinned workload — the n = 5000 planted 9-block input,
#      --threads 1, --seed 0, AGGCLUST_SIMD=swar, once with LOCALSEARCH
#      and once with AGGLOMERATIVE (both --no-refine) — and diff its run
#      report against its committed baseline with aggclust-trace.
#      Deterministic work counters are gated exactly (any drift means the
#      algorithm did different work; mem_high_water_bytes catches a second
#      O(n^2) structure); span self-time *shares* are gated with a
#      generous tolerance (absolute times do not transfer across machines,
#      shares mostly do).
#   2. Validate the committed baselines with `aggclust-trace check`, so a
#      re-recorded baseline must pass the run-report schema. (The gate's
#      self-test — doctored baselines must FAIL it, since a gate that
#      cannot fail is not a gate — is crates/trace/tests/perf_gate.rs,
#      which runs under `cargo test` with this script's diff flags.)
#   3. Smoke-check the flamegraph path: `aggclust-trace fold` on the
#      workload's JSONL trace must emit well-formed folded-stack lines
#      including the local_search span.
#
# The pinned tier + thread count make the gated counters machine-
# independent, so the committed baseline stays valid on any host.
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

# Each pinned workload: its --algorithm and its committed baseline.
WORKLOADS=(
    "local-search ci/baselines/local_search_n5000.json"
    "agglomerative ci/baselines/agglomerative_n5000.json"
)
for workload in "${WORKLOADS[@]}"; do
    baseline=${workload#* }
    [ -f "$baseline" ] || { echo "missing baseline $baseline" >&2; exit 1; }
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Same planted 9-block family as ci/trace-schema.sh / ci/kill-resume.sh.
awk -v n=5000 'BEGIN {
  for (v = 0; v < n; v++) {
    base = v % 9
    b = (base + (v % 5 == 0)) % 9
    c = (base + (v % 7 == 0)) % 9
    printf "%d,%d,%d\n", base, b, c
  }
}' > "$WORK/in5000.csv"

# Counters that must not move at all on the pinned workload. Everything the
# run does per distance lookup / node visit / kernel batch is covered, so a
# silently-added O(n^2) pass or a broken early-exit shows up here before any
# wall-clock measurement could see it through the noise.
GATED_COUNTERS=oracle_dense_evals,oracle_packed_evals,oracle_lazy_evals,ls_passes,ls_nodes_visited,ls_moves,kernels_row_batches,mem_high_water_bytes

# run_workload ALGORITHM REPORT [TRACE]
run_workload() {
    AGGCLUST_SIMD=swar "$BIN" aggregate --input "$WORK/in5000.csv" \
        --algorithm "$1" --no-refine --threads 1 --seed 0 \
        --metrics-out "$2" --output /dev/null --log-level error \
        ${3:+--trace-out "$3"}
}

for workload in "${WORKLOADS[@]}"; do
    algorithm=${workload%% *}
    baseline=${workload#* }
    echo "== pinned workload: n=5000 $algorithm, threads=1, swar tier =="
    run_workload "$algorithm" "$WORK/$algorithm.json" "$WORK/$algorithm.jsonl"

    echo "== gate: current vs $baseline =="
    "$TRACE_BIN" diff --before "$baseline" --after "$WORK/$algorithm.json" \
        --gate-counters "$GATED_COUNTERS" \
        --share-tolerance-pts 25 --min-ns 20000000 \
        --fail-on-regression

    echo "== baseline schema: the committed baseline must pass check =="
    "$TRACE_BIN" check --report "$baseline" > /dev/null
    echo "OK: $baseline passes the run-report schema"
done

echo "== flamegraph fold smoke-check =="
"$TRACE_BIN" fold --trace "$WORK/local-search.jsonl" > "$WORK/folded.txt"
# Folded-stack grammar: 'name(;name)* <integer>' per line, nothing else.
awk '!/^[A-Za-z0-9_]+(;[A-Za-z0-9_]+)* [0-9]+$/ { print "bad folded line: " $0; bad = 1 }
     END { exit bad }' "$WORK/folded.txt"
grep -q "local_search " "$WORK/folded.txt"
grep -q "condensed_alloc" "$WORK/folded.txt"
echo "OK: $(wc -l < "$WORK/folded.txt") folded stacks, grammar valid"

echo "perf-gate: all checks passed"
