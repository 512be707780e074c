#!/usr/bin/env bash
# Distributed smoke gate: start `argus serve`, submit a remote-only
# distributed campaign, attach three `argus worker` processes over
# loopback, SIGKILL one of them mid-run, and require the finished report
# to be byte-identical (modulo wall-clock/scheduling metadata under
# "run") to a one-shot `argus campaign --json` run of the same spec.
# The survivors then serve a snapshot campaign (`snapshot_every`), whose
# store each worker captures itself, and its report must match
# `argus campaign --snapshot-every` the same way. The surviving workers
# drain on SIGTERM and must exit 0, as must the daemon.
#
# Usage: scripts/distributed_smoke.sh [path-to-argus-binary]
set -euo pipefail

BIN="${1:-target/release/argus}"
if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found or not executable (cargo build --release first)" >&2
    exit 1
fi

N=6000
SEED=7171
SNAP_N=1500
SNAP_SEED=7272
SNAP_EVERY=500
WORK="$(mktemp -d)"
STATE="$WORK/state"
PORT_FILE="$WORK/port"
SERVE_PID=""
WORKER_PIDS=()
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2>/dev/null
    for pid in "${WORKER_PIDS[@]:-}"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

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

job_state() { # job_state ID
    api GET "/jobs/$1" | python3 -c 'import json,sys; sys.stdin.readline(); print(json.load(sys.stdin)["state"])'
}

wait_state() { # wait_state ID WANT TRIES
    local id="$1" want="$2" tries="$3" state
    for _ in $(seq 1 "$tries"); do
        state="$(job_state "$id")"
        [[ "$state" == "$want" ]] && return 0
        if [[ "$state" == "failed" || "$state" == "cancelled" ]]; then
            echo "error: job $id ended '$state' waiting for '$want'" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "error: job $id stuck in '$state' waiting for '$want'" >&2
    exit 1
}

echo "== one-shot reference run =="
"$BIN" campaign -n "$N" --seed "$SEED" --shards 2 --json --quiet > "$WORK/ref.json"
"$BIN" campaign -n "$SNAP_N" --seed "$SNAP_SEED" --snapshot-every "$SNAP_EVERY" \
    --shards 2 --json --quiet > "$WORK/snap_ref.json"

echo "== start daemon, submit a remote-only distributed campaign =="
# Short lease TTL so the SIGKILLed worker's chunks reissue quickly.
"$BIN" serve --addr 127.0.0.1:0 --workers 1 --state-dir "$STATE" \
    --checkpoint-interval-ms 100 --lease-ttl-ms 1000 2> "$WORK/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    if grep -qo 'listening on http://[0-9.]*:[0-9]*' "$WORK/serve.log"; then
        grep -o 'listening on http://[0-9.]*:[0-9]*' "$WORK/serve.log" \
            | head -n1 | sed 's/.*://' > "$PORT_FILE"
        break
    fi
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "error: daemon died on startup:" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
[[ -s "$PORT_FILE" ]] || { echo "error: daemon never reported its address" >&2; exit 1; }

# budget 0: the daemon contributes no local workers — all progress comes
# over the wire, so killing a worker genuinely threatens the campaign.
out="$(api POST /jobs "{\"n\": $N, \"seed\": $SEED, \"distributed\": true, \"budget\": 0, \"chunk\": 16}")"
[[ "$(head -n1 <<<"$out")" == 201 ]] || { echo "submit failed: $out" >&2; exit 1; }
JOB_ID="$(tail -n1 <<<"$out" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
wait_state "$JOB_ID" running 150
echo "submitted distributed job $JOB_ID"

echo "== attach 3 workers over loopback =="
PORT="$(cat "$PORT_FILE")"
for i in 1 2 3; do
    "$BIN" worker --connect "127.0.0.1:$PORT" --workers 1 --poll-ms 100 \
        --name "smoke-w$i" > "$WORK/worker$i.log" 2>&1 &
    WORKER_PIDS[$i]=$!
done

echo "== SIGKILL worker 3 once the campaign is moving =="
for _ in $(seq 1 300); do
    done_count="$(api GET "/jobs/$JOB_ID" | python3 -c '
import json, sys
sys.stdin.readline()
doc = json.load(sys.stdin)
print(doc.get("progress", {}).get("done", 0))')"
    [[ "$done_count" -gt 0 ]] && break
    sleep 0.1
done
[[ "$done_count" -gt 0 ]] || { echo "error: no injection completed within 30s" >&2; exit 1; }
kill -9 "${WORKER_PIDS[3]}"
wait "${WORKER_PIDS[3]}" 2>/dev/null || true
echo "killed worker pid ${WORKER_PIDS[3]} mid-campaign ($done_count injections in)"
WORKER_PIDS[3]=""

echo "== survivors must finish the campaign (expired leases reissue) =="
wait_state "$JOB_ID" done 3000
api GET "/jobs/$JOB_ID/report" | tail -n +2 > "$WORK/got.json"

echo "== compare distributed report against the one-shot run =="
python3 - "$WORK/ref.json" "$WORK/got.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    ref = json.load(f)
with open(sys.argv[2]) as f:
    got = json.load(f)

remote = got.get("run", {}).get("remote", {})
ref.pop("run", None)   # wall-clock / scheduling / recovery metadata
got.pop("run", None)
if ref != got:
    for key in sorted(set(ref) | set(got)):
        if ref.get(key) != got.get(key):
            print(f"MISMATCH {key}: one-shot={ref.get(key)!r} distributed={got.get(key)!r}")
    sys.exit(1)
print("report identical to one-shot run (3 workers, one SIGKILLed)")
if remote.get("workers_seen", 0) < 3:
    print(f"MISMATCH run.remote.workers_seen: want >= 3, got {remote.get('workers_seen')!r}")
    sys.exit(1)
print(f"remote accounting: {remote}")
EOF

echo "== survivors serve a snapshot campaign, capturing their own store =="
out="$(api POST /jobs "{\"n\": $SNAP_N, \"seed\": $SNAP_SEED, \"distributed\": true, \"budget\": 0, \"snapshot_every\": $SNAP_EVERY}")"
[[ "$(head -n1 <<<"$out")" == 201 ]] || { echo "submit failed: $out" >&2; exit 1; }
SNAP_ID="$(tail -n1 <<<"$out" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
wait_state "$SNAP_ID" done 3000
api GET "/jobs/$SNAP_ID/report" | tail -n +2 > "$WORK/snap_got.json"
python3 - "$WORK/snap_ref.json" "$WORK/snap_got.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    ref = json.load(f)
with open(sys.argv[2]) as f:
    got = json.load(f)

remote = got.get("run", {}).get("remote", {})
ref.pop("run", None)
got.pop("run", None)
if ref != got:
    for key in sorted(set(ref) | set(got)):
        if ref.get(key) != got.get(key):
            print(f"MISMATCH {key}: one-shot={ref.get(key)!r} distributed={got.get(key)!r}")
    sys.exit(1)
if remote.get("local_chunks", 0) != 0 or remote.get("remote_chunks", 0) < 1:
    print(f"MISMATCH run.remote: want remote chunks only, got {remote!r}")
    sys.exit(1)
print("snapshot job report identical to one-shot --snapshot-every run")
EOF

echo "== surviving workers drain on SIGTERM and exit 0 =="
for i in 1 2; do
    kill -TERM "${WORKER_PIDS[$i]}"
done
for i in 1 2; do
    wait "${WORKER_PIDS[$i]}" && RC=0 || RC=$?
    [[ "$RC" == 0 ]] || {
        echo "error: worker $i exited $RC on SIGTERM, want 0" >&2
        cat "$WORK/worker$i.log" >&2
        exit 1
    }
    WORKER_PIDS[$i]=""
done

echo "== daemon drains on SIGTERM and exits 0 =="
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

echo "distributed_smoke: OK"
