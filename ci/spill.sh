#!/usr/bin/env bash
# Out-of-core spill acceptance check (ISSUE 7):
#
#   1. n = 20000, m = 10 under a --mem-budget-mb cap far below the ~800 MB
#      dense-matrix footprint must degrade to the *disk spill* — the run
#      warns "spilling the condensed matrix", not SAMPLING and not
#      singletons — and its labels must be byte-identical to an
#      unconstrained run.
#   2. SIGKILL the spilled run mid-spill (tile frames on disk, run dead),
#      then --resume: orphaned tiles are reclaimed and the labels still
#      match.
#   3. A converged spilled run removes its tiles (no disk litter).
#
# The caller wraps this script in `timeout 900` (the runs move ~5 GB of
# matrix + tile bytes through page faults; slow-fault VMs need the slack).
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

# Keep n = 20000 on the dense/spilled path (default threshold is 6000).
# BALLS makes one deterministic Theta(n^2) sweep over the oracle — it reads
# every spilled pair exactly where LOCALSEARCH would, without LOCALSEARCH's
# many-pass runtime — and --no-refine keeps the comparison to that sweep.
args=(aggregate --input "$WORK/input.csv" --algorithm balls --no-refine
      --sampling-threshold 20001)

echo "== reference (unconstrained: dense matrix in RAM) =="
"$BIN" "${args[@]}" --output "$WORK/ref.txt" --log-level error

echo "== spilled (--mem-budget-mb 64, ~200 tiles on disk) =="
"$BIN" "${args[@]}" --mem-budget-mb 64 --spill-dir "$WORK/tiles" \
    --output "$WORK/spilled.txt" 2> "$WORK/spilled.err" || {
    cat "$WORK/spilled.err"
    exit 1
}
grep -q "spilling the condensed matrix" "$WORK/spilled.err" || {
    echo "FAIL: spilled run did not record the spill warning"
    cat "$WORK/spilled.err"
    exit 1
}
if grep -Eq "SAMPLING|singletons|lazy oracle" "$WORK/spilled.err"; then
    echo "FAIL: spilled run degraded past the spill step"
    cat "$WORK/spilled.err"
    exit 1
fi
cmp "$WORK/ref.txt" "$WORK/spilled.txt"
echo "OK: spilled labels are byte-identical to the unconstrained run"
if [ -d "$WORK/tiles" ]; then
    echo "FAIL: converged run left spilled tiles behind:"
    ls "$WORK/tiles"
    exit 1
fi
echo "OK: converged run cleaned up its spill directory"

echo "== victim (SIGKILL mid-spill) =="
"$BIN" "${args[@]}" --mem-budget-mb 64 --checkpoint "$WORK/run.ckpt" \
    --output "$WORK/victim.txt" 2>/dev/null &
victim=$!
# The default spill dir rides beside the checkpoint. Hold the kill until
# tile frames exist (the spill is actually in flight) or the victim exits.
SPILL_DIR="$WORK/run.ckpt.spill"
for _ in $(seq 1 3000); do
    if [ -d "$SPILL_DIR" ] && [ -n "$(ls "$SPILL_DIR" 2>/dev/null)" ]; then
        break
    fi
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.01
done
kill -KILL "$victim" 2>/dev/null || echo "note: run finished before the kill"
wait "$victim" 2>/dev/null || true
orphans=$(ls "$SPILL_DIR" 2>/dev/null | wc -l)
echo "killed with $orphans orphaned tile frames on disk"

echo "== resume (orphaned tiles must be reclaimed) =="
"$BIN" "${args[@]}" --mem-budget-mb 64 --checkpoint "$WORK/run.ckpt" --resume \
    --metrics-out "$WORK/resume.json" --output "$WORK/resumed.txt" \
    2> "$WORK/resume.err"
cmp "$WORK/ref.txt" "$WORK/resumed.txt"
echo "OK: resumed labels are byte-identical to the unconstrained run"
if [ "$orphans" -gt 0 ]; then
    # `check` validates the report, then prints it as 'path value' lines.
    "$TRACE_BIN" check --report "$WORK/resume.json" | awk '
        { v[$1] = $2 }
        END {
            if (!(v["metrics.spill_tiles_read"] > 0)) {
                print "FAIL: no orphaned tiles were reclaimed (written=" v["metrics.spill_tiles_written"] ")"
                exit 1
            }
            print "OK: resume reclaimed " v["metrics.spill_tiles_read"] " tiles, rebuilt and wrote " v["metrics.spill_tiles_written"]
        }'
fi
if [ -d "$SPILL_DIR" ]; then
    echo "FAIL: resumed run left spilled tiles behind:"
    ls "$SPILL_DIR"
    exit 1
fi
echo "OK: resumed run cleaned up the default spill directory"
