#!/usr/bin/env bash
# Memory-cap acceptance check: n = 20000, m = 10 under a --mem-budget-mb
# cap far below the ~800 MB dense-matrix footprint must degrade to the
# O(n*m) lazy oracle — the run warns "lazy oracle", not SAMPLING and not
# singletons, reads every distance through the lazy oracle — and its labels
# must be byte-identical to an unconstrained run at 1, 2 and 4 threads,
# and its `--log-level info` summary line (`aggregated ... (cost ...,
# lower bound ...)`) identical to the unconstrained run's: the lazy oracle
# prices the labels in the same exact integers as the dense matrix.
#
# Second case, the same input on the SAMPLING path with BALLS: uncapped,
# then capped under the sample's 5.1 MB matrix, which the sub-run must
# refuse and replace with the sample's lazy instance (same labels, tracked
# high-water under the cap).
#
# Third case, AGGLOMERATIVE at n = 3000, m = 10, which merges in one
# condensed triangle filled straight from the packed labels (no dense code
# matrix next to it; the refinement builds its 18 MB of codes only once
# the triangle is dropped). Total inputs keep an 18 MB triangle of exact
# u32 sums: 10-15 MB caps cannot hold it, so each such run must take the
# SAMPLING rung (warning, sampled result, exit 0); at 20-60 MB it fits and
# the labels must match the unconstrained run byte for byte. The same
# input with every 7th label missing under `--missing ignore` has no exact
# scale and keeps a 36 MB f64 triangle: 20-30 MB sample, 40-60 MB fit.
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
"$BIN" "${args[@]}" --output "$WORK/ref.txt" --log-level info 2> "$WORK/ref.err"
summary() { grep '^aggregated ' "$1"; }
ref_summary=$(summary "$WORK/ref.err")
case "$ref_summary" in
    *"(cost "*", lower bound "*")") echo "reference: $ref_summary" ;;
    *) echo "FAIL: no priced summary line in the reference run"; cat "$WORK/ref.err"; exit 1 ;;
esac

for threads in 1 2 4; do
    echo "== capped (--mem-budget-mb 64, --threads $threads) =="
    # The counters cost two shared atomic adds per lazy read, which at
    # several threads slows the run several-fold: count one run only.
    report=()
    if [ "$threads" = 1 ]; then
        report=(--metrics-out "$WORK/capped.json")
    fi
    "$BIN" "${args[@]}" --mem-budget-mb 64 --threads "$threads" "${report[@]}" \
        --log-level info --output "$WORK/capped.txt" 2> "$WORK/capped.err" || {
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
    capped_summary=$(summary "$WORK/capped.err")
    if [ "$capped_summary" != "$ref_summary" ]; then
        echo "FAIL: capped summary differs from the unconstrained run"
        echo "  reference: $ref_summary"
        echo "  capped:    $capped_summary"
        exit 1
    fi
    echo "OK: capped summary line is identical to the unconstrained run's"
done

# The same n = 20000 input on its default SAMPLING path with BALLS: the
# sample of 1600 has a 5.1 MB matrix of u16 codes, which the uncapped run
# charges and a 2 MB cap refuses; BALLS then reads the sample's lazy
# instance and must write the uncapped labels byte for byte, with the
# tracked high-water under the cap.
sampling_args=(aggregate --input "$WORK/input.csv" --algorithm balls)
sample_matrix=$((2 * 1600 * 1600))
high_water() {
    "$TRACE_BIN" check --report "$1" | awk '$1 == "metrics.mem_high_water_bytes" { print $2 }'
}
echo "== SAMPLING with BALLS (uncapped) =="
"$BIN" "${sampling_args[@]}" --metrics-out "$WORK/sampling-ref.json" \
    --output "$WORK/sampling-ref.txt" --log-level error
water=$(high_water "$WORK/sampling-ref.json")
if [ "$water" -lt "$sample_matrix" ]; then
    echo "FAIL: uncapped SAMPLING high-water $water is under the sample matrix's $sample_matrix bytes"
    exit 1
fi
echo "OK: uncapped SAMPLING charges its sample matrix (high-water $water bytes)"
echo "== SAMPLING with BALLS (--mem-budget-mb 2: the sample matrix does not fit) =="
"$BIN" "${sampling_args[@]}" --mem-budget-mb 2 --metrics-out "$WORK/sampling-capped.json" \
    --output "$WORK/sampling-capped.txt" --log-level error || {
    echo "FAIL: capped SAMPLING run exited $?"
    exit 1
}
cmp "$WORK/sampling-ref.txt" "$WORK/sampling-capped.txt"
water=$(high_water "$WORK/sampling-capped.json")
if [ "$water" -gt $((2 * 1024 * 1024)) ]; then
    echo "FAIL: capped SAMPLING high-water $water is over the 2 MB cap"
    exit 1
fi
echo "OK: capped SAMPLING labels are byte-identical, high-water $water bytes"

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

# The same labels with every 7th one written as `?`.
awk -F, -v OFS=, '{
  for (j = 1; j <= NF; j++) { if (++c % 7 == 0) $j = "?" }
  print
}' "$WORK/agglo.csv" > "$WORK/agglo-ignore.csv"

# agglo_window NAME CSV SAMPLE_CAPS DENSE_CAPS [ARGS...]: every cap in
# SAMPLE_CAPS (MB) must take the SAMPLING rung, every cap in DENSE_CAPS
# must run dense and write the unconstrained run's labels.
agglo_window() {
    local name=$1 csv=$2 sample_caps=$3 dense_caps=$4
    shift 4
    echo "== AGGLOMERATIVE reference ($name, n = 3000, unconstrained) =="
    "$BIN" aggregate --input "$csv" "$@" --output "$WORK/agglo-ref.txt" --log-level error

    for mb in $sample_caps; do
        echo "== AGGLOMERATIVE capped ($name, --mem-budget-mb $mb: the triangle does not fit) =="
        "$BIN" aggregate --input "$csv" "$@" --mem-budget-mb "$mb" \
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

    for mb in $dense_caps; do
        echo "== AGGLOMERATIVE capped ($name, --mem-budget-mb $mb: the triangle fits) =="
        "$BIN" aggregate --input "$csv" "$@" --mem-budget-mb "$mb" \
            --output "$WORK/agglo-capped.txt" 2> "$WORK/agglo-capped.err" || {
            cat "$WORK/agglo-capped.err"
            exit 1
        }
        if grep -q "warning" "$WORK/agglo-capped.err"; then
            echo "FAIL: a $mb MB AGGLOMERATIVE run degraded"
            cat "$WORK/agglo-capped.err"
            exit 1
        fi
        cmp "$WORK/agglo-ref.txt" "$WORK/agglo-capped.txt"
        echo "OK: $mb MB labels are byte-identical to the unconstrained run"
    done
}

agglo_window "total inputs, u32 sums" "$WORK/agglo.csv" "10 15" "20 30 40 50 60"
agglo_window "Ignore, f64 triangle" "$WORK/agglo-ignore.csv" "20 30" "40 50 60" --missing ignore
