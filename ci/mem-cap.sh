#!/usr/bin/env bash
# Memory-cap acceptance check: n = 20000, m = 10 under a --mem-budget-mb
# cap far below the ~800 MB dense-matrix footprint must degrade to the
# O(n*m) lazy oracle — the run warns "lazy oracle", not SAMPLING and not
# singletons, reads every distance through the lazy oracle — and its labels
# must be byte-identical to an unconstrained run at 1, 2 and 4 threads.
#
# The caller wraps this script in `timeout 600`.
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

# n = 20000, m = 10: planted 9-block structure where clustering j disagrees
# deterministically on every (5 + j)-th row — the same family as
# ci/kill-resume.sh, widened to 10 input clusterings.
awk 'BEGIN {
  for (v = 0; v < 20000; v++) {
    base = v % 9
    line = base
    for (j = 1; j < 10; j++) {
      line = line "," ((base + (v % (5 + j) == 0)) % 9)
    }
    print line
  }
}' > "$WORK/input.csv"

# Keep n = 20000 off the SAMPLING path (default threshold is 6000). BALLS
# makes one deterministic Theta(n^2) sweep over the oracle, and --no-refine
# keeps the comparison to that sweep.
args=(aggregate --input "$WORK/input.csv" --algorithm balls --no-refine
      --sampling-threshold 20001)

echo "== reference (unconstrained: dense matrix in RAM) =="
"$BIN" "${args[@]}" --output "$WORK/ref.txt" --log-level error

for threads in 1 2 4; do
    echo "== capped (--mem-budget-mb 64, --threads $threads) =="
    # The counters cost two shared atomic adds per lazy read, which at
    # several threads slows the run several-fold: count one run only.
    report=()
    if [ "$threads" = 1 ]; then
        report=(--metrics-out "$WORK/capped.json")
    fi
    "$BIN" "${args[@]}" --mem-budget-mb 64 --threads "$threads" "${report[@]}" \
        --output "$WORK/capped.txt" 2> "$WORK/capped.err" || {
        cat "$WORK/capped.err"
        exit 1
    }
    grep -q "lazy oracle" "$WORK/capped.err" || {
        echo "FAIL: capped run did not record the lazy-oracle warning"
        cat "$WORK/capped.err"
        exit 1
    }
    if grep -Eq "SAMPLING|singletons" "$WORK/capped.err"; then
        echo "FAIL: capped run degraded past the lazy oracle"
        cat "$WORK/capped.err"
        exit 1
    fi
    if [ "$threads" = 1 ]; then
        # `check` validates the report, then prints it as 'path value' lines.
        "$TRACE_BIN" check --report "$WORK/capped.json" | awk '
            { v[$1] = $2 }
            END {
                if (!(v["metrics.oracle_lazy_evals"] > 0) || v["metrics.oracle_dense_evals"] != 0) {
                    print "FAIL: expected lazy reads only (lazy=" v["metrics.oracle_lazy_evals"] \
                        ", dense=" v["metrics.oracle_dense_evals"] ")"
                    exit 1
                }
                print "OK: " v["metrics.oracle_lazy_evals"] " lazy reads, no dense reads"
            }'
    fi
    cmp "$WORK/ref.txt" "$WORK/capped.txt"
    echo "OK: capped labels are byte-identical to the unconstrained run"
done
