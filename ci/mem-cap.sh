#!/usr/bin/env bash
# Memory-cap acceptance check: n = 20000, m = 10 under a --mem-budget-mb
# cap far below the ~800 MB dense-matrix footprint must degrade to the
# O(n*m) lazy oracle — the run warns "lazy oracle", not SAMPLING and not
# singletons, reads every distance through the lazy oracle — and its labels
# must be byte-identical to an unconstrained run at 1, 2 and 4 threads.
#
# Second case, AGGLOMERATIVE at n = 3000, m = 10: the 18 MB of dense codes
# fit 20-50 MB caps, but codes plus the 36 MB f64 linkage copy do not. Each
# such run must take the SAMPLING rung (warning, sampled result, exit 0);
# at 60 MB both fit and the labels must match the unconstrained run.
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

# n = 3000, m = 10: a 12-cluster planted truth with 20 % of each input's
# labels redrawn, from a Park-Miller generator so every awk agrees.
awk 'BEGIN {
  x = 42
  for (v = 0; v < 3000; v++) {
    x = (x * 16807) % 2147483647; truth = x % 12
    line = ""
    for (j = 0; j < 10; j++) {
      x = (x * 16807) % 2147483647; label = truth
      if (x % 5 == 0) { x = (x * 16807) % 2147483647; label = x % 12 }
      line = line (j ? "," : "") label
    }
    print line
  }
}' > "$WORK/agglo.csv"

echo "== AGGLOMERATIVE reference (n = 3000, unconstrained) =="
"$BIN" aggregate --input "$WORK/agglo.csv" --output "$WORK/agglo-ref.txt" --log-level error

for mb in 20 30 40 50; do
    echo "== AGGLOMERATIVE capped (--mem-budget-mb $mb: codes fit, codes + copy do not) =="
    "$BIN" aggregate --input "$WORK/agglo.csv" --mem-budget-mb "$mb" \
        --output "$WORK/agglo-capped.txt" 2> "$WORK/agglo-capped.err" || {
        echo "FAIL: capped AGGLOMERATIVE run exited $?"
        cat "$WORK/agglo-capped.err"
        exit 1
    }
    grep -q "degrading to SAMPLING" "$WORK/agglo-capped.err" || {
        echo "FAIL: capped AGGLOMERATIVE run did not take the SAMPLING rung"
        cat "$WORK/agglo-capped.err"
        exit 1
    }
    grep -q "(sampled)" "$WORK/agglo-capped.err" || {
        echo "FAIL: capped AGGLOMERATIVE run did not report a sampled result"
        cat "$WORK/agglo-capped.err"
        exit 1
    }
    [ "$(wc -l < "$WORK/agglo-capped.txt")" -eq 3000 ] || {
        echo "FAIL: capped AGGLOMERATIVE run did not label every object"
        exit 1
    }
    echo "OK: $mb MB samples with a warning and labels every object"
done

echo "== AGGLOMERATIVE capped (--mem-budget-mb 60: codes + copy fit) =="
"$BIN" aggregate --input "$WORK/agglo.csv" --mem-budget-mb 60 \
    --output "$WORK/agglo-capped.txt" 2> "$WORK/agglo-capped.err" || {
    cat "$WORK/agglo-capped.err"
    exit 1
}
if grep -q "warning" "$WORK/agglo-capped.err"; then
    echo "FAIL: a 60 MB AGGLOMERATIVE run degraded"
    cat "$WORK/agglo-capped.err"
    exit 1
fi
cmp "$WORK/agglo-ref.txt" "$WORK/agglo-capped.txt"
echo "OK: 60 MB labels are byte-identical to the unconstrained run"
