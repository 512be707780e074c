#!/usr/bin/env bash
# Daemon smoke gate: start `argus serve`, submit two campaigns at
# different priorities over HTTP, hold the big one at a fixed completion
# count with a zombie lease, SIGKILL the daemon there, restart it on the
# same state dir, and require both jobs to finish with reports
# byte-identical (modulo wall-clock/scheduling metadata under "run") to
# one-shot `argus campaign --json` runs of the same specs. Finishes with
# a SIGTERM drain that must exit 0.
#
# Usage: scripts/serve_smoke.sh [path-to-argus-binary]
set -euo pipefail

BIN="${1:-target/release/argus}"
if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found or not executable (cargo build --release first)" >&2
    exit 1
fi

N_BIG=20000
N_SMALL=400
# Zombie leases outlive the run: the held chunk never completes before
# the SIGKILL, however fast the host is.
LEASE_TTL_MS=600000
SEED_BIG=4242
SEED_SMALL=99
WORK="$(mktemp -d)"
STATE="$WORK/state"
PORT_FILE="$WORK/port"
SERVE_PID=""
trap '[[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

# Tiny HTTP/JSON helper (python3 stdlib only; the environment is offline).
api() { # api METHOD PATH [BODY]
    python3 - "$(cat "$PORT_FILE")" "$@" <<'EOF'
import http.client, sys
port, method, path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
body = sys.argv[4] if len(sys.argv) > 4 else None
conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
conn.request(method, path, body=body)
resp = conn.getresponse()
payload = resp.read().decode()
print(resp.status)
print(payload)
EOF
}

start_daemon() {
    "$BIN" serve --addr 127.0.0.1:0 --workers 2 --state-dir "$STATE" \
        --checkpoint-interval-ms 20 --lease-ttl-ms "$LEASE_TTL_MS" 2> "$WORK/serve.log" &
    SERVE_PID=$!
    # The daemon prints its bound address to stderr; extract the port.
    for _ in $(seq 1 100); do
        if grep -qo 'listening on http://[0-9.]*:[0-9]*' "$WORK/serve.log"; then
            grep -o 'listening on http://[0-9.]*:[0-9]*' "$WORK/serve.log" \
                | head -n1 | sed 's/.*://' > "$PORT_FILE"
            return 0
        fi
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "error: daemon died on startup:" >&2
            cat "$WORK/serve.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "error: daemon never reported its address" >&2
    exit 1
}

job_state() { # job_state ID
    api GET "/jobs/$1" | python3 -c 'import json,sys; sys.stdin.readline(); print(json.load(sys.stdin)["state"])'
}

wait_state() { # wait_state ID WANT TRIES
    local id="$1" want="$2" tries="$3" state
    for _ in $(seq 1 "$tries"); do
        state="$(job_state "$id")"
        [[ "$state" == "$want" ]] && return 0
        sleep 0.2
    done
    echo "error: job $id stuck in '$state' waiting for '$want'" >&2
    exit 1
}

echo "== one-shot reference runs =="
"$BIN" campaign -n "$N_BIG" --seed "$SEED_BIG" --shards 2 --json --quiet \
    > "$WORK/ref_big.json"
"$BIN" campaign -n "$N_SMALL" --seed "$SEED_SMALL" --shards 2 --json --quiet \
    > "$WORK/ref_small.json"

echo "== start daemon, submit two campaigns at different priorities, hold the"
echo "   big one with a zombie lease and SIGKILL the daemon once it has"
echo "   checkpointed every injection but the held ones =="
start_daemon
# The big job is distributed with one pool worker (the small one takes
# the other, so nothing is preempted). A zombie leases one chunk of it
# and never completes it: the local worker runs the rest, and the job
# then sits running at N_BIG - held. One process submits, leases, polls
# the big job's checkpoint and kills, so nothing races the job's end.
python3 - "$(cat "$PORT_FILE")" "$STATE" "$SERVE_PID" \
    "$N_BIG" "$SEED_BIG" "$N_SMALL" "$SEED_SMALL" > "$WORK/ids" <<'EOF'
import http.client, json, os, signal, sys, time
port, state, pid = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
n_big, seed_big, n_small, seed_small = map(int, sys.argv[4:8])

def post(path, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("POST", path, body=json.dumps(body))
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read().decode() or "null")

def submit(spec):
    status, doc = post("/jobs", spec)
    if status != 201:
        sys.exit(f"error: submit {spec} failed: {status} {doc}")
    return doc["id"]

big = submit({"n": n_big, "seed": seed_big, "priority": 1, "distributed": True, "budget": 1})
small = submit({"n": n_small, "seed": seed_small, "priority": 8})
print(big, small)
deadline = time.monotonic() + 30
while True:
    status, grant = post(f"/jobs/{big}/lease", {"worker": "zombie"})
    if status == 200 and isinstance(grant, dict) and "start" in grant:
        held = grant["end"] - grant["start"]
        break
    if time.monotonic() > deadline:
        sys.exit(f"error: the zombie never leased a chunk of job {big}: {status} {grant}")
    time.sleep(0.001)
kill_at = n_big - held
path = os.path.join(state, f"job-{big}.ckpt.json")
deadline = time.monotonic() + 600
while time.monotonic() < deadline:
    try:
        with open(path) as f:
            done = sum(end - start for start, end in json.load(f)["body"]["done"])
    except (OSError, ValueError, KeyError):
        done = 0  # not written yet, or mid-rotation
    if done >= kill_at:
        os.kill(pid, signal.SIGKILL)
        print(f"checkpoint records {done} of {n_big} injections, {held} held", file=sys.stderr)
        if done != kill_at:
            sys.exit(f"error: the held chunk completed ({done} > {kill_at} injections "
                     "checkpointed) before the kill; the zombie lease did not hold")
        sys.exit(0)
    time.sleep(0.01)
sys.exit(f"error: the checkpoint never recorded {kill_at} completed injections within 600s")
EOF
read -r BIG_ID SMALL_ID < "$WORK/ids"
echo "submitted big=$BIG_ID (priority 1), small=$SMALL_ID (priority 8)"
wait "$SERVE_PID" 2>/dev/null || true
echo "killed daemon pid $SERVE_PID mid-campaign"

echo "== restart on the same state dir; both jobs must finish =="
start_daemon
grep -q "resuming" "$WORK/serve.log" || {
    echo "error: restarted daemon did not report resuming jobs" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}
wait_state "$SMALL_ID" done 600
wait_state "$BIG_ID" done 3000

api GET "/jobs/$BIG_ID/report" | tail -n +2 > "$WORK/got_big.json"
api GET "/jobs/$SMALL_ID/report" | tail -n +2 > "$WORK/got_small.json"

echo "== compare daemon reports against one-shot runs =="
python3 - "$WORK/ref_big.json" "$WORK/got_big.json" \
          "$WORK/ref_small.json" "$WORK/got_small.json" <<'EOF'
import json, sys

def payload(path):
    with open(path) as f:
        doc = json.load(f)
    doc.pop("run", None)  # wall-clock / scheduling / recovery metadata
    return doc

for name, ref_path, got_path in [
    ("big", sys.argv[1], sys.argv[2]),
    ("small", sys.argv[3], sys.argv[4]),
]:
    ref, got = payload(ref_path), payload(got_path)
    if ref != got:
        for key in sorted(set(ref) | set(got)):
            if ref.get(key) != got.get(key):
                print(f"MISMATCH {name}.{key}: one-shot={ref.get(key)!r} daemon={got.get(key)!r}")
        sys.exit(1)
    print(f"{name}: daemon report identical to one-shot run (SIGKILL+resume included)")
EOF

echo "== graceful drain: SIGTERM must checkpoint and exit 0 =="
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "error: daemon ignored SIGTERM for 10s" >&2
    exit 1
fi
wait "$SERVE_PID" && RC=0 || RC=$?
[[ "$RC" == 0 ]] || { echo "error: SIGTERM drain exited $RC, want 0" >&2; exit 1; }
SERVE_PID=""

echo "serve_smoke: OK"
