#!/usr/bin/env bash
# Chaos acceptance check (DESIGN.md §6i): seeded fault storms against the
# checkpoint+spill CLI workload, proving the degradation chain end to end.
#
#   Phase A — 48 filesystem-fault plans (checkpoint + spill sites). Each
#             run must exit 0 with labels byte-identical to the clean
#             reference: retries, tile rebuilds, and oracle degradation
#             absorb every checkpoint/spill fault without touching the
#             answer.
#   Phase B — 16 clock-skew / delay / alloc plans. Runs may be cut short
#             (anytime contract) but must exit with a documented code,
#             never panic, and always write full-length labels.
#   Phase C — typed-error check: an injected dataset-read failure must
#             surface as exit 3 (I/O error), not a panic or exit 101.
#   Phase D — determinism: the same plan and seed replay the same
#             injection sequence ("fault injected at ..." stderr lines).
#   Phase E — SIGKILL under an active fault storm, then resume: the
#             resumed labels must be byte-identical to the reference.
#
# ≥64 seeded plans total. The caller wraps this script in `timeout 300`.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/aggclust
if [ ! -x "$BIN" ]; then
    cargo build --release -q -p aggclust-cli
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# n = 800, m = 3: planted 9-block structure with deterministic disagreement,
# the same generator family as ci/kill-resume.sh at a size where a 1 MB
# memory budget forces the spill path (dense matrix of u16 codes ≈ 1.3 MB).
N=800
awk -v n="$N" 'BEGIN {
  for (v = 0; v < n; v++) {
    base = v % 9
    b = (base + (v % 5 == 0)) % 9
    c = (base + (v % 7 == 0)) % 9
    printf "%d,%d,%d\n", base, b, c
  }
}' > "$WORK/input.csv"

args=(aggregate --input "$WORK/input.csv" --algorithm local-search --no-refine
      --threads 1 --mem-budget-mb 1)

echo "== clean reference =="
"$BIN" "${args[@]}" --checkpoint "$WORK/ref.ckpt" --checkpoint-every-ms 20 \
    --spill-dir "$WORK/ref.spill" --output "$WORK/ref.txt"
lines=$(wc -l < "$WORK/ref.txt")
[ "$lines" -eq "$N" ] || { echo "FAIL: reference has $lines labels"; exit 1; }

# One run under an armed plan. Asserts the universal invariants (no panic,
# documented exit code, full-length labels when expected) and leaves stderr
# in $WORK/run.err for the caller's phase-specific checks.
run_storm() {
    local plan=$1 out=$2 expect_labels=$3
    local ckpt="$WORK/storm.ckpt"
    rm -rf "$ckpt" "$ckpt.spill" "$WORK/storm.spill"
    local code=0
    "$BIN" "${args[@]}" --checkpoint "$ckpt" --checkpoint-every-ms 20 \
        --spill-dir "$WORK/storm.spill" --output "$out" \
        --fault-plan "$plan" 2> "$WORK/run.err" || code=$?
    if grep -q "panicked" "$WORK/run.err"; then
        echo "FAIL: panic under plan '$plan'"; cat "$WORK/run.err"; exit 1
    fi
    case "$code" in
        0|7|8) ;;
        *) echo "FAIL: undocumented exit $code under plan '$plan'"
           cat "$WORK/run.err"; exit 1 ;;
    esac
    if [ "$expect_labels" = yes ]; then
        local got
        got=$(wc -l < "$out")
        if [ "$got" -ne "$N" ]; then
            echo "FAIL: $got labels under plan '$plan'"; exit 1
        fi
    fi
    return "$code"
}

echo "== phase A: 48 filesystem-fault storms =="
# Deterministic plan table: every checkpoint/spill site crossed with the
# fault kinds it can carry, seeds varied per storm.
fs_sites=(snapshot.create snapshot.write snapshot.fsync snapshot.rename
          spill.create spill.write spill.fsync spill.rename spill.read
          spill.create_dir snapshot.read cli.cleanup)
fs_kinds=(io_error enospc torn delay:ms=1)
for storm in $(seq 0 47); do
    site=${fs_sites[$((storm % ${#fs_sites[@]}))]}
    kind=${fs_kinds[$(((storm / ${#fs_sites[@]}) % ${#fs_kinds[@]}))]}
    case "$site" in
        # Read sites never see torn clauses' silent truncation as a write;
        # keep the sweep honest by downgrading torn to io_error there.
        *.read|cli.cleanup) kind=${kind/torn/io_error} ;;
    esac
    plan="$site=$kind:prob=0.5:seed=$((1000 + storm))"
    run_storm "$plan" "$WORK/storm.txt" yes || true
    if ! cmp -s "$WORK/ref.txt" "$WORK/storm.txt"; then
        echo "FAIL: storm $storm ($plan) changed the labels"; exit 1
    fi
done
echo "OK: 48 fs storms, labels byte-identical to the reference"

echo "== phase B: 16 skew / delay / alloc storms =="
for storm in $(seq 0 15); do
    case $((storm % 4)) in
        0) plan="clock=skew:ms=$((10 + storm * 5))" ;;
        1) plan="alloc=fail:after_mb=$((1 + storm % 3))" ;;
        2) plan="spill.write=delay:ms=2:prob=0.5:seed=$storm,snapshot.write=delay:ms=2:prob=0.5:seed=$storm" ;;
        3) plan="alloc=fail:after_mb=1,spill.write=io_error:prob=0.5:seed=$storm" ;;
    esac
    run_storm "$plan" "$WORK/storm.txt" yes || true
done
echo "OK: 16 pressure storms, all anytime contracts held"

echo "== phase C: injected input-read failure is a typed I/O error =="
code=0
"$BIN" "${args[@]}" --output "$WORK/c.txt" \
    --fault-plan "cli.input=io_error" 2> "$WORK/c.err" || code=$?
if [ "$code" -ne 3 ]; then
    echo "FAIL: expected exit 3 for injected input failure, got $code"
    cat "$WORK/c.err"; exit 1
fi
grep -q "panicked" "$WORK/c.err" && { echo "FAIL: panic"; exit 1; }
echo "OK: injected dataset-read fault surfaced as exit 3"

echo "== phase D: same plan + seed => same injection sequence =="
# Checkpoint cadence 0 saves on every iteration, so with --threads 1 the
# op sequence — and therefore the injection log — is a pure function of
# (plan, seed). Zero-millisecond delays keep the run fast while still
# logging every injection; the spill io_errors exercise the retry path.
plan="spill.write=io_error:prob=0.5:seed=7,snapshot.write=delay:ms=0:prob=0.5:seed=11"
run_d() {
    local out=$1
    rm -rf "$WORK/d.ckpt" "$WORK/d.spill"
    "$BIN" "${args[@]}" --checkpoint "$WORK/d.ckpt" --checkpoint-every-ms 0 \
        --spill-dir "$WORK/d.spill" --output "$out" \
        --fault-plan "$plan" 2> "$WORK/run.err" || true
}
run_d "$WORK/d1.txt"
grep "fault injected" "$WORK/run.err" > "$WORK/d1.log" || true
run_d "$WORK/d2.txt"
grep "fault injected" "$WORK/run.err" > "$WORK/d2.log" || true
if [ ! -s "$WORK/d1.log" ]; then
    echo "FAIL: determinism storm never injected anything"; exit 1
fi
cmp "$WORK/d1.log" "$WORK/d2.log" || {
    echo "FAIL: injection sequence is not deterministic"; exit 1; }
echo "OK: $(wc -l < "$WORK/d1.log") injections replayed identically"

echo "== phase E: SIGKILL under injection, then resume =="
rm -rf "$WORK/e.ckpt" "$WORK/e.spill"
"$BIN" "${args[@]}" --checkpoint "$WORK/e.ckpt" --checkpoint-every-ms 5 \
    --spill-dir "$WORK/e.spill" --output "$WORK/e.txt" \
    --fault-plan "snapshot.write=torn:prob=0.3:seed=3,spill.write=io_error:prob=0.3:seed=5" \
    2>/dev/null &
victim=$!
for _ in $(seq 1 300); do
    [ -f "$WORK/e.ckpt" ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.01
done
kill -KILL "$victim" 2>/dev/null || echo "note: run finished before the kill"
wait "$victim" 2>/dev/null || true
# Resume with no plan armed: whatever the storm left on disk — a valid
# checkpoint, a torn one the CRC rejects, leftover tiles — must lead back
# to the reference labels.
"$BIN" "${args[@]}" --checkpoint "$WORK/e.ckpt" --resume \
    --spill-dir "$WORK/e.spill" --output "$WORK/resumed.txt"
cmp "$WORK/ref.txt" "$WORK/resumed.txt"
echo "OK: resume after SIGKILL-under-injection is byte-identical"

echo "chaos: all phases passed (66 seeded plans)"
