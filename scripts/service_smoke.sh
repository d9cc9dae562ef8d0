#!/usr/bin/env bash
# Service smoke gate, run as a ctest entry (see tests/CMakeLists.txt).
#
# Starts a mannad daemon on a Unix socket, drives fig12_strong_scaling
# through it with manna-submit from three concurrent clients (each a
# distinct sweep, so per-client fairness counters are observable), and
# requires every client's stdout to be byte-identical to the same
# bench run in-process — the core `server=` contract of
# docs/SERVICE.md. A fourth client is SIGTERM'd mid-run to prove the
# daemon cancels its jobs and stays healthy, and the daemon's metrics
# JSONL must carry the queue-depth/steal sample fields.
#
# Then three fresh daemons serve one sweep through a server= list:
# stdout must match the in-process run and a one-daemon run, the
# bench_json snapshots must match the in-process one exactly
# (bench_compare.py --tol 0), the merged harness trace must hold one
# trace pid per process (client + 3 daemons) with each daemon's
# server.conn and job.enqueue events, and the client's metrics series
# must be non-empty. manna-submit's control commands act on the whole
# list, and mannad refuses a list as its own listen address.
#
# Usage: service_smoke.sh <mannad> <manna-submit> <fig12 binary>
set -u

mannad=${1:-}
submit=${2:-}
bench=${3:-}
for bin in "$mannad" "$submit" "$bench"; do
    if [ -z "$bin" ] || [ ! -x "$bin" ]; then
        echo "service_smoke: usage: $0 <mannad> <manna-submit>" \
             "<fig12 binary>" >&2
        exit 1
    fi
done

# The smoke controls its own topology; ambient knobs would skew it.
unset MANNA_SERVER MANNA_POOL MANNA_QUEUE_DEPTH MANNA_CLIENTS \
      MANNA_FAULTS MANNA_FAULT_SEED MANNA_JOBS MANNA_RETRIES \
      MANNA_TIMEOUT MANNA_STATS MANNA_TRACE MANNA_PROGRESS \
      MANNA_PROFILE MANNA_BENCH_JSON MANNA_EVENTS MANNA_METRICS \
      MANNA_HARNESS_TRACE 2>/dev/null

tmpdir=$(mktemp -d)
daemon_pid=
list_pids=()
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    for pid in "${list_pids[@]}"; do
        kill "$pid" 2>/dev/null
    done
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

errors=0
complain() {
    echo "service_smoke: $*" >&2
    errors=$((errors + 1))
}

sock="$tmpdir/mannad.sock"
golden="bench=copy fidelity=fast jobs=1"

# --- golden in-process runs (one sweep per client) -----------------
for steps in 4 5 6; do
    # shellcheck disable=SC2086
    "$bench" $golden steps=$steps > "$tmpdir/inproc.$steps.out" \
        2> "$tmpdir/inproc.$steps.err" ||
        { complain "in-process steps=$steps run failed"; exit 1; }
done

# --- daemon up -----------------------------------------------------
"$mannad" server="unix:$sock" pool=2 \
    stats="$tmpdir/daemon_stats.json" \
    metrics="$tmpdir/daemon_metrics.jsonl" metrics_interval=0.2 \
    > "$tmpdir/daemon.out" 2> "$tmpdir/daemon.err" &
daemon_pid=$!
for _ in $(seq 50); do
    "$submit" server="unix:$sock" ping >/dev/null 2>&1 && break
    sleep 0.1
done
"$submit" server="unix:$sock" ping > /dev/null 2>&1 ||
    { complain "daemon never became reachable"; exit 1; }

# --- three concurrent clients, distinct sweeps ---------------------
for steps in 4 5 6; do
    # shellcheck disable=SC2086
    "$submit" server="unix:$sock" -- "$bench" $golden steps=$steps \
        > "$tmpdir/client.$steps.out" 2> "$tmpdir/client.$steps.err" &
    eval "client_$steps=\$!"
done
for steps in 4 5 6; do
    eval "wait \$client_$steps" ||
        complain "client steps=$steps exited non-zero:" \
                 "$(tail -3 "$tmpdir/client.$steps.err" | tr '\n' ' ')"
    cmp -s "$tmpdir/inproc.$steps.out" "$tmpdir/client.$steps.out" ||
        complain "client steps=$steps stdout differs from in-process"
done

# Fairness bookkeeping: all three clients appear in per_client, each
# with its full 5-job sweep dispatched, and the pool executed all 15.
"$submit" server="unix:$sock" stats > "$tmpdir/stats1.json" 2>&1 ||
    complain "stats request failed"
python3 - "$tmpdir/stats1.json" <<'EOF' || errors=$((errors + 1))
import json, sys
s = json.load(open(sys.argv[1]))
c = s["counters"]
per_client = s["per_client"]
assert s["schema"] == "manna-daemon-stats-v1", s["schema"]
assert len(per_client) == 3, per_client
assert all(v == 5 for v in per_client.values()), per_client
assert c["completed"] == 15, c
assert c["failed"] == 0 and c["cancelled"] == 0, c
assert sum(s["per_worker"]) == 15, s["per_worker"]
EOF

# --- a client SIGTERM'd mid-run ------------------------------------
"$submit" server="unix:$sock" -- "$bench" fidelity=fast steps=4 \
    > "$tmpdir/victim.out" 2> "$tmpdir/victim.err" &
victim=$!
sleep 1
kill -TERM "$victim" 2>/dev/null
wait "$victim" 2>/dev/null
grep -q "interrupted" "$tmpdir/victim.err" ||
    complain "SIGTERM'd client did not report the interruption"

# The daemon survives the departed client and cancelled its work.
"$submit" server="unix:$sock" ping > /dev/null 2>&1 ||
    complain "daemon unreachable after client SIGTERM"
"$submit" server="unix:$sock" stats > "$tmpdir/stats2.json" 2>&1 ||
    complain "stats request after SIGTERM failed"
python3 - "$tmpdir/stats2.json" <<'EOF' || errors=$((errors + 1))
import json, sys
s = json.load(open(sys.argv[1]))
c = s["counters"]
assert c["cancelled"] >= 1, c    # clean cancellation, not a wedge
assert c["failed"] == 0, c
EOF

# --- shutdown + artifact checks ------------------------------------
"$submit" server="unix:$sock" shutdown > /dev/null 2>&1 ||
    complain "shutdown request failed"
wait "$daemon_pid" 2>/dev/null
daemon_pid=

[ -e "$sock" ] && complain "daemon left its socket behind"
grep -q "manna-daemon-stats-v1" "$tmpdir/daemon_stats.json" ||
    complain "daemon stats= snapshot missing or malformed"

# Work-stealing visibility: the metrics JSONL must carry the
# queue-depth and steal-count fields in header + samples.
head -1 "$tmpdir/daemon_metrics.jsonl" |
    grep -q "manna-daemon-metrics-v1" ||
    complain "metrics JSONL header missing"
tail -n +2 "$tmpdir/daemon_metrics.jsonl" |
    grep -q '"queue_depth":' ||
    complain "metrics samples lack queue_depth"
tail -n +2 "$tmpdir/daemon_metrics.jsonl" |
    grep -q '"steals":' ||
    complain "metrics samples lack steal counts"

# --- one sweep over a three-daemon server= list --------------------
list="bench=copy steps=1 jobs=1"
# shellcheck disable=SC2086
"$bench" $list bench_json="$tmpdir/plain.json" > "$tmpdir/plain.txt" \
    2> "$tmpdir/plain.err" ||
    complain "in-process list-golden run failed"
addrs=()
for name in a b c; do
    "$mannad" server="unix:$tmpdir/$name.sock" pool=2 \
        events="$tmpdir/$name.events" \
        > "$tmpdir/$name.out" 2> "$tmpdir/$name.err" &
    list_pids+=($!)
    addrs+=("unix:$tmpdir/$name.sock")
done
for addr in "${addrs[@]}"; do
    for _ in $(seq 50); do
        "$submit" server="$addr" ping >/dev/null 2>&1 && break
        sleep 0.1
    done
    "$submit" server="$addr" ping > /dev/null 2>&1 ||
        complain "daemon $addr never became reachable"
done
three=$(IFS=,; echo "${addrs[*]}")
"$submit" server="$three" ping > "$tmpdir/ping3.out" 2>&1 &&
    [ "$(grep -c ': ok$' "$tmpdir/ping3.out")" -eq 3 ] ||
    complain "list ping did not reach all three daemons"
"$submit" server="$three,unix:$tmpdir/nowhere.sock" ping \
    > /dev/null 2>&1 &&
    complain "list ping succeeded with one daemon unreachable"
timeout 10 "$mannad" server="$three" \
    > /dev/null 2> "$tmpdir/listd.err" &&
    complain "mannad accepted a server= list as its listen address"
grep -q "ConfigError" "$tmpdir/listd.err" ||
    complain "mannad did not reject the server= list with ConfigError"

# shellcheck disable=SC2086
"$bench" $list server="${addrs[0]}" bench_json="$tmpdir/one.json" \
    > "$tmpdir/one.txt" 2> "$tmpdir/one.err" ||
    complain "one-daemon run failed"
# shellcheck disable=SC2086
"$bench" $list server="$three" bench_json="$tmpdir/three.json" \
    > "$tmpdir/three.txt" 2> "$tmpdir/three.err" ||
    complain "three-daemon run failed"
for run in one three; do
    cmp -s "$tmpdir/plain.txt" "$tmpdir/$run.txt" ||
        complain "$run-daemon stdout differs from in-process"
    # The counters come back over the wire bit-exactly: no tolerance.
    python3 "$(dirname "$0")/bench_compare.py" "$tmpdir/plain.json" \
        "$tmpdir/$run.json" --tol 0 > "$tmpdir/$run.compare" 2>&1 ||
        complain "$run-daemon bench_json differs:" \
                 "$(tr '\n' ' ' < "$tmpdir/$run.compare")"
done

# Tracing must not perturb output; the merged trace holds the client
# plus each daemon's advertised event file (one trace pid each). The
# client pings every daemon before merging and a daemon flushes its
# event log before answering, so each daemon's connection span and
# enqueue instants are in it.
# shellcheck disable=SC2086
"$bench" $list server="$three" events="$tmpdir/client.events" \
    harness_trace="$tmpdir/harness_trace.json" \
    metrics="$tmpdir/metrics.jsonl" > "$tmpdir/events.txt" \
    2> "$tmpdir/events.err" ||
    complain "traced three-daemon run failed"
cmp -s "$tmpdir/plain.txt" "$tmpdir/events.txt" ||
    complain "stdout changed when event tracing was armed"
python3 - "$tmpdir/harness_trace.json" <<'EOF' || errors=$((errors + 1))
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["otherData"]["schema"] == "manna-harness-trace-v1", doc["otherData"]
pids = {e["pid"] for e in doc["traceEvents"]}
assert len(pids) == 4, f"expected 4 trace pids, got {sorted(pids)}"
names = {e["name"] for e in doc["traceEvents"]}
assert "sweep.run" in names and "job.run" in names, sorted(names)
daemons = {e["pid"] for e in doc["traceEvents"]
           if e["ph"] == "M" and e["args"]["name"].startswith("daemon")}
assert len(daemons) == 3, f"expected 3 daemon pids, got {sorted(daemons)}"
for pid in sorted(daemons):
    got = {e["name"] for e in doc["traceEvents"] if e["pid"] == pid}
    for want in ("server.conn", "job.enqueue"):
        assert want in got, f"daemon pid {pid} lacks {want}: {sorted(got)}"
EOF
head -1 "$tmpdir/metrics.jsonl" | grep -q "manna-metrics-v1" ||
    complain "metrics series missing its manna-metrics-v1 header"
[ "$(wc -l < "$tmpdir/metrics.jsonl")" -ge 2 ] ||
    complain "metrics series has no samples"
"$submit" server="$three" shutdown > /dev/null 2>&1 ||
    complain "list shutdown request failed"
for pid in "${list_pids[@]}"; do
    kill "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
done
list_pids=()

if [ "$errors" -gt 0 ]; then
    echo "service_smoke: $errors problem(s)" >&2
    exit 1
fi
echo "service_smoke: OK (3 concurrent clients byte-identical," \
     "SIGTERM'd client cancelled cleanly, 3-daemon list matches)"
