#!/usr/bin/env bash
# Kill-and-resume acceptance check (ISSUE 3):
#
#   1. Run LOCALSEARCH on n = 5000 with --checkpoint, SIGKILL it at ~50 ms
#      (a real crash: no handler runs, no final checkpoint is flushed).
#   2. Resume from whatever checkpoint survived on disk.
#   3. The resumed labels must be byte-identical to an uninterrupted run.
#
# Also smoke-tests --mem-budget-mb: a cap far below the ~50 MB dense-matrix
# footprint must complete through the lazy-oracle degradation path with a
# warning and the same labels. The caller wraps this script in `timeout 60`.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/aggclust
if [ ! -x "$BIN" ]; then
    cargo build --release -q -p aggclust-cli
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# n = 5000, m = 3: planted 9-block structure with deterministic disagreement
# on every 5th and 7th row, so LOCALSEARCH has real moves to make.
awk 'BEGIN {
  for (v = 0; v < 5000; v++) {
    base = v % 9
    b = (base + (v % 5 == 0)) % 9
    c = (base + (v % 7 == 0)) % 9
    printf "%d,%d,%d\n", base, b, c
  }
}' > "$WORK/input.csv"

args=(aggregate --input "$WORK/input.csv" --algorithm local-search --no-refine)

echo "== reference (uninterrupted) =="
"$BIN" "${args[@]}" --output "$WORK/ref.txt"

echo "== victim (SIGKILL at ~50 ms) =="
"$BIN" "${args[@]}" --checkpoint "$WORK/run.ckpt" --checkpoint-every-ms 5 \
    --output "$WORK/victim.txt" 2>/dev/null &
victim=$!
sleep 0.05
# The O(n²) matrix build precedes the first checkpoint; killing before one
# exists would only exercise the (also valid) fresh-start path. Hold the
# kill until a checkpoint is on disk or the victim exits on its own.
for _ in $(seq 1 300); do
    [ -f "$WORK/run.ckpt" ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.01
done
kill -KILL "$victim" 2>/dev/null || echo "note: run finished before the kill"
wait "$victim" 2>/dev/null || true
if [ -f "$WORK/run.ckpt" ]; then
    echo "checkpoint survived the kill ($(wc -c < "$WORK/run.ckpt") bytes)"
else
    echo "note: killed before the first checkpoint; resume starts fresh"
fi

echo "== resume =="
"$BIN" "${args[@]}" --checkpoint "$WORK/run.ckpt" --resume --output "$WORK/resumed.txt"

cmp "$WORK/ref.txt" "$WORK/resumed.txt"
echo "OK: resumed labels are byte-identical to the uninterrupted run"

echo "== --mem-budget-mb degradation smoke =="
"$BIN" "${args[@]}" --mem-budget-mb 4 --output "$WORK/mem.txt" 2> "$WORK/mem.err"
grep -q "lazy oracle" "$WORK/mem.err"
cmp "$WORK/ref.txt" "$WORK/mem.txt"
echo "OK: memory-capped run degraded to the lazy oracle with identical labels"
