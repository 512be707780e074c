#!/usr/bin/env bash
# Canary-matrix gate: prove the invariant registry (and, where the
# registry is blind by design, campaign divergence) actually detects
# real checker bugs — not just that it stays quiet on healthy runs.
#
# The `canary` cargo feature compiles 14 deliberately seeded bugs into
# the checkers, machine, orchestrator and campaign engine, each dormant until its name is set in
# ARGUS_CANARY. This script builds that binary once, proves it is
# byte-identical to the clean binary while dormant, then arms each
# canary in turn and asserts it is caught either by a *named* invariant
# in `run.invariants.per_invariant` or by a divergence in the
# deterministic report payload. Any undetected canary fails the gate
# and is listed by name.
#
# Usage: scripts/canary_matrix.sh [path-to-clean-argus-binary]
set -euo pipefail

BIN="${1:-target/release/argus}"
if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found or not executable (cargo build --release first)" >&2
    exit 1
fi

echo "== build canary binary (separate target dir; clean binary untouched) =="
CARGO_TARGET_DIR=target/canary cargo build --release -p argus-cli --features canary
CBIN=target/canary/release/argus

WORK="$(mktemp -d)"
SERVE_PID=""
WORKER_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null
    [[ -n "$WORKER_PID" ]] && kill -9 "$WORKER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

FAILED=()

# Deterministic payload: the report minus the volatile "run" key.
payload() { # payload FILE
    python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
doc.pop("run", None)
print(json.dumps(doc, sort_keys=True))' "$1"
}

# Count of violations attributed to a named invariant in run.invariants.
inv_count() { # inv_count FILE INVARIANT
    python3 -c '
import json, sys
inv = json.load(open(sys.argv[1])).get("run", {}).get("invariants", {})
print(inv.get("per_invariant", {}).get(sys.argv[2], 0))' "$1" "$2"
}

check_invariant() { # check_invariant CANARY INVARIANT ARGS...
    local canary="$1" invariant="$2"
    shift 2
    ARGUS_CANARY="$canary" "$CBIN" campaign "$@" --invariants full --json --quiet \
        > "$WORK/armed.json"
    local hits
    hits="$(inv_count "$WORK/armed.json" "$invariant")"
    if [[ "$hits" -gt 0 ]]; then
        echo "DETECTED  $canary -> invariant '$invariant' ($hits violations)"
    else
        echo "MISSED    $canary: invariant '$invariant' reported 0 violations" >&2
        FAILED+=("$canary")
    fi
}

check_divergence() { # check_divergence CANARY ARGS...
    local canary="$1"
    shift
    "$CBIN" campaign "$@" --json --quiet > "$WORK/clean.json"
    ARGUS_CANARY="$canary" "$CBIN" campaign "$@" --json --quiet > "$WORK/armed.json"
    if [[ "$(payload "$WORK/clean.json")" != "$(payload "$WORK/armed.json")" ]]; then
        echo "DETECTED  $canary -> deterministic report payload diverged"
    else
        echo "MISSED    $canary: report identical to clean run" >&2
        FAILED+=("$canary")
    fi
}

echo "== dormant canary build must match the clean binary exactly =="
"$BIN"  campaign -n 60 --seed 9 --json --quiet > "$WORK/plain.json"
"$CBIN" campaign -n 60 --seed 9 --json --quiet > "$WORK/dormant.json"
if [[ "$(payload "$WORK/plain.json")" != "$(payload "$WORK/dormant.json")" ]]; then
    echo "error: canary build diverges from the clean binary with no canary armed" >&2
    exit 1
fi
echo "dormant canary build is payload-identical to the clean binary"

echo "== checker canaries: named-invariant detection =="
check_invariant canary-shs-stale-table-row  shs-fused-tables-match-reference \
    -n 60 --seed 9
check_invariant canary-cfc-drop-expectation cfc-expectation-armed \
    -n 60 --seed 9
check_invariant canary-watchdog-never-fires watchdog-within-budget \
    -n 60 --seed 9

echo "== checker canaries: campaign-divergence detection =="
# These corrupt signatures that the invariants deliberately do not
# re-derive (that would duplicate the checker); the end-to-end outcome
# distribution is the detector. The (n, seed) pairs are the smallest
# configurations where the stress workload provably exposes each bug.
check_divergence canary-parity-skip-loads   -n 400 --seed 9
check_divergence canary-dcs-skip-last-block -n 500 --seed 123

echo "== campaign canary: reconvergence match without the checker term =="
# A spent transient whose machine state rejoins the golden run while its
# checker still holds a pending detection must run on and detect; taking
# the golden (undetected) verdict moves it between quadrants. Such runs
# are rare (seed 9 first shows one between 500 and 1000 injections), so
# the campaign is twice that size.
check_divergence canary-reconverge-skip-checker -n 2000 --seed 9

echo "== campaign canary: dead-site record keeps each site's first tap =="
# The no-fault run's record must hold each machine site's *last* possible
# tap: keeping the first one instead claims faults that arm between the
# two never fire, and gives them the golden verdict.
check_divergence canary-dead-site-first-tap -n 60 --seed 9

echo "== machine canary: a tapped op inside a block skips its fault draw =="
# Blocks run under a live permanent fault, running the ops that can tap
# its site with their live taps inline. Running the first such op of a
# block with identity taps skips that op's masking draw and flip, which
# changes how post-detection runs end. Seed 9 first shows it at 120
# permanent injections.
check_divergence canary-tapped-op-skips-draw --permanent -n 200 --seed 9

echo "== machine canary: a tapped op inside a block draws on a stale cycle =="
# A tapped op runs from its plan with its live taps inline, after setting
# the injector's cycle to its own start cycle. Skipping that set keys the
# op's masking draws on the cycle last set (the block's start), which
# moves a post-detection run between masked and unmasked. Only faults of
# sensitization below 1 draw, so the effect is rare: seed 6 first shows it
# between 500 and 510 permanent injections.
check_divergence canary-tapped-op-stale-cycle --permanent -n 1000 --seed 6

echo "== campaign canary: early finish treats a live signature bit as masked =="
# A permanent fault whose flipped bits no consumer reads stops at its
# first flip with the no-fault verdict. A mask one bit narrower than the
# signature also stops faults on the signature's top bit, which the
# checker reads and often detects. Seed 9 first shows it at 140 permanent
# injections.
check_divergence canary-early-finish-live-bit --permanent -n 200 --seed 9

echo "== campaign canary: a cursor restore skips a page the no-fault run wrote =="
# A cold-boot injection resumes the worker's rolling golden cursor, whose
# restore rewrites every page written since the last capture or restore.
# Leaving one page the no-fault run wrote as the last faulty run left it
# starts later injections from a corrupted prefix. Seed 9 first shows it
# at 120 injections.
check_divergence canary-cursor-skips-walk-page -n 200 --seed 9

echo "== orchestrator canaries: ledger-invariant detection =="
# chunk=1 with 4 shards forces work-stealing on every injection.
check_invariant canary-tally-drop-on-steal tally-accounts-done \
    -n 60 --seed 9 --shards 4 --chunk 1

echo "== resume canary: quarantine ledger dropped on checkpoint load =="
# Seed quarantine records via deliberate panics, checkpoint the finished
# run, then resume with the canary armed: the post-load checkpoint audit
# must see a tally that no longer accounts for the done ranges.
CKPT="$WORK/canary.ckpt.json"
"$CBIN" campaign -n 60 --seed 9 --shards 2 --chaos-panic-at 7,23 \
    --checkpoint "$CKPT" --json --quiet > /dev/null
ARGUS_CANARY=canary-quarantine-drop-on-resume "$CBIN" campaign \
    -n 60 --seed 9 --shards 2 --checkpoint "$CKPT" --resume \
    --invariants full --json --quiet > "$WORK/armed.json"
hits="$(inv_count "$WORK/armed.json" tally-accounts-done)"
if [[ "$hits" -gt 0 ]]; then
    echo "DETECTED  canary-quarantine-drop-on-resume -> invariant 'tally-accounts-done' ($hits violations)"
else
    echo "MISSED    canary-quarantine-drop-on-resume: invariant 'tally-accounts-done' reported 0 violations" >&2
    FAILED+=("canary-quarantine-drop-on-resume")
fi

echo "== dedup-gate canary, one-shot: duplicate completion merged past the gate =="
# One-shot runs commit every chunk through the same ledger dedup gate as
# distributed ones, so the seeded double merge must surface here too.
check_invariant canary-lease-double-complete tally-accounts-done \
    -n 60 --seed 9 --shards 2

echo "== dedup-gate canary, daemon: duplicate completion merged past the gate =="
ARGUS_CANARY=canary-lease-double-complete "$CBIN" serve --addr 127.0.0.1:0 \
    --workers 1 --state-dir "$WORK/state" --lease-ttl-ms 2000 \
    2> "$WORK/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -qo 'listening on http://[0-9.]*:[0-9]*' "$WORK/serve.log" && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "error: daemon died on startup:" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
PORT="$(grep -o 'listening on http://[0-9.]*:[0-9]*' "$WORK/serve.log" \
    | head -n1 | sed 's/.*://')"
[[ -n "$PORT" ]] || { echo "error: daemon never reported its address" >&2; exit 1; }
curl -s -X POST "http://127.0.0.1:$PORT/jobs" \
    -d '{"n": 600, "seed": 9, "distributed": true, "budget": 0, "chunk": 16, "invariants": "full"}' \
    > "$WORK/submit.json"
JOB="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/submit.json")"
# The worker process carries no armed canary: the seeded bug lives in
# the daemon's dedup gate, so a clean worker is the honest configuration.
"$CBIN" worker --connect "127.0.0.1:$PORT" --workers 2 --poll-ms 50 \
    --name canary-w1 > "$WORK/worker.log" 2>&1 &
WORKER_PID=$!
STATE=""
for _ in $(seq 1 600); do
    STATE="$(curl -s "http://127.0.0.1:$PORT/jobs/$JOB" \
        | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
    [[ "$STATE" == "done" || "$STATE" == "failed" ]] && break
    sleep 0.2
done
[[ "$STATE" == "done" ]] || { echo "error: distributed job ended '$STATE'" >&2; exit 1; }
curl -s "http://127.0.0.1:$PORT/jobs/$JOB/report" > "$WORK/armed.json"
hits="$(inv_count "$WORK/armed.json" tally-accounts-done)"
if [[ "$hits" -gt 0 ]]; then
    echo "DETECTED  canary-lease-double-complete -> invariant 'tally-accounts-done' ($hits violations)"
else
    echo "MISSED    canary-lease-double-complete: invariant 'tally-accounts-done' reported 0 violations" >&2
    FAILED+=("canary-lease-double-complete")
fi
kill -TERM "$WORKER_PID" 2>/dev/null && wait "$WORKER_PID" 2>/dev/null || true
WORKER_PID=""
kill -TERM "$SERVE_PID" 2>/dev/null && wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo
if [[ "${#FAILED[@]}" -gt 0 ]]; then
    echo "FAIL: ${#FAILED[@]} canary(ies) went undetected:" >&2
    printf '  %s\n' "${FAILED[@]}" >&2
    exit 1
fi
echo "PASS: all 14 canaries detected, lease-double-complete in one-shot and daemon runs (dormant build payload-identical)"
