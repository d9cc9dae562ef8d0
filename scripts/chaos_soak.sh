#!/usr/bin/env bash
# Chaos soak gate, run as a ctest entry (see tests/CMakeLists.txt).
#
# Runs the golden fig12_strong_scaling point (bench=copy steps=1
# jobs=1) once cleanly, then re-runs it under a rotating schedule of
# injected faults — fsync failures, torn journal appends, and
# bit-corrupted journal reads (see docs/ROBUSTNESS.md for the site
# catalog). Every faulted run must exit 0 and produce byte-identical
# stdout to the clean run, and the journal-corruption phases must
# surface their damage in the stats.json `journal.corrupt_records`
# field.
#
# Usage: chaos_soak.sh <fig12_strong_scaling binary> [mannad binary]
#
# With a mannad binary the soak adds three service phases, each
# byte-identical to the clean run (docs/SERVICE.md): a two-daemon
# server= list whose first daemon aborts at its first job pickup
# (server.crash; the job fails over to the second daemon), the same
# list whose first daemon wedges that job (server.stall; the watchdog
# cancel goes unconfirmed, the daemon is marked down and the retry
# runs on the second), and one daemon whose pool worker crashes at
# task pickup (pool.worker.crash; the task is requeued).
set -u

bin=${1:-}
mannad=${2:-}
if [ -z "$bin" ] || [ ! -x "$bin" ]; then
    echo "chaos_soak: usage: $0 <fig12_strong_scaling binary>" \
         "[mannad binary]" >&2
    exit 1
fi

# The soak controls its own fault schedule and process topology;
# ambient knobs from the environment would skew it.
unset MANNA_FAULTS MANNA_FAULT_SEED MANNA_JOBS MANNA_RETRIES \
      MANNA_TIMEOUT MANNA_STATS MANNA_TRACE MANNA_PROGRESS \
      MANNA_PROFILE MANNA_BENCH_JSON MANNA_SERVER MANNA_POOL \
      MANNA_QUEUE_DEPTH MANNA_CLIENTS 2>/dev/null
# An injected daemon abort must not leave a core file behind.
ulimit -c 0

tmpdir=$(mktemp -d)
daemon_pids=()
stop_daemons() {
    for pid in "${daemon_pids[@]}"; do
        kill "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
    done
    daemon_pids=()
}
cleanup() {
    stop_daemons
    rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM

golden="bench=copy steps=1 jobs=1 fault_seed=7"
errors=0
complain() {
    echo "chaos_soak: $*" >&2
    errors=$((errors + 1))
}

# run <phase> <expected-exit> <arg>... — runs the bench, captures
# stdout/stderr under $tmpdir/<phase>.{out,err}, checks the exit code.
run() {
    local phase=$1 want=$2
    shift 2
    # shellcheck disable=SC2086 — $golden is intentionally word-split
    "$bin" $golden "$@" > "$tmpdir/$phase.out" 2> "$tmpdir/$phase.err"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        complain "phase '$phase' exited $got (want $want):" \
                 "$(tail -3 "$tmpdir/$phase.err" | tr '\n' ' ')"
        return 1
    fi
}

# identical <phase> — the soak's core assertion: a faulted run's
# report must be byte-identical to the clean run's.
identical() {
    cmp -s "$tmpdir/clean.out" "$tmpdir/$1.out" ||
        complain "phase '$1' stdout differs from the clean run"
}

# logged <phase> <pattern> — the recovery path must announce itself.
logged() {
    grep -q "$2" "$tmpdir/$1.err" ||
        complain "phase '$1' stderr lacks '$2'"
}

# start_daemon <name> <arg>... — start mannad on $tmpdir/<name>.sock
# (stderr in $tmpdir/<name>.daemon.err) and wait for its socket.
start_daemon() {
    local name=$1
    shift
    "$mannad" server="unix:$tmpdir/$name.sock" pool=2 fault_seed=7 "$@" \
        > "$tmpdir/$name.daemon.out" 2> "$tmpdir/$name.daemon.err" &
    daemon_pids+=($!)
    for _ in $(seq 50); do
        [ -S "$tmpdir/$name.sock" ] && return 0
        sleep 0.1
    done
    complain "mannad '$name' never came up"
    return 1
}

have_mannad=0
[ -n "$mannad" ] && [ -x "$mannad" ] && have_mannad=1

# --- phase 0: clean golden run -------------------------------------
run clean 0 || { echo "chaos_soak: no golden run; aborting" >&2; exit 1; }

if [ "$have_mannad" -eq 1 ]; then
    # --- phase 1: a daemon aborts at its first job pickup ----------
    if start_daemon crash_a faults=server.crash:once@1 &&
            start_daemon crash_b &&
            run crash 0 \
                server="unix:$tmpdir/crash_a.sock,unix:$tmpdir/crash_b.sock"
    then
        identical crash
        logged crash "resubmitting it to the next live daemon"
        grep -q "crashing at job pickup (injected)" \
            "$tmpdir/crash_a.daemon.err" ||
            complain "daemon did not report the injected abort"
    fi
    stop_daemons

    # --- phase 2: a daemon wedges a job and ignores the cancel -----
    if start_daemon stall_a faults=server.stall:once@1 &&
            start_daemon stall_b &&
            run stall 0 timeout=2 retries=1 \
                server="unix:$tmpdir/stall_a.sock,unix:$tmpdir/stall_b.sock"
    then
        identical stall
        logged stall "did not confirm a cancel in time; marking it down"
    fi
    stop_daemons
fi

# --- phase 3: journal fsync fails mid-sweep ------------------------
run fsync 0 journal="$tmpdir/fsync.journal" \
    faults=journal.fsync:once@1 &&
    { identical fsync; logged fsync "checkpointing disabled"; }

# --- phase 4: torn journal append, then resume past it -------------
run torn 0 journal="$tmpdir/torn.journal" \
    faults=journal.append.torn:once@1 &&
    identical torn
if run torn_resume 0 resume="$tmpdir/torn.journal" \
        stats="$tmpdir/torn.stats.json"; then
    identical torn_resume
    grep -q '"journal.corrupt_records": 1' "$tmpdir/torn.stats.json" ||
        complain "torn resume did not count 1 corrupt record"
fi

# --- phase 5: bit corruption on journal read -----------------------
run seedj 0 journal="$tmpdir/read.journal" && identical seedj
if run read_corrupt 0 resume="$tmpdir/read.journal" \
        faults=journal.read.corrupt:once@1 \
        stats="$tmpdir/read.stats.json"; then
    identical read_corrupt
    grep -q '"journal.corrupt_records": 1' "$tmpdir/read.stats.json" ||
        complain "corrupt-read resume did not count 1 corrupt record"
fi

# --- phase 6: daemon pool worker crashes at task pickup ------------
phases=3
if [ "$have_mannad" -eq 1 ]; then
    phases=6
    if start_daemon pool faults=pool.worker.crash:once@1 &&
            run pool_crash 0 server="unix:$tmpdir/pool.sock"; then
        identical pool_crash
        grep -q "crashed (injected); restarting" \
            "$tmpdir/pool.daemon.err" ||
            complain "daemon did not report the worker restart"
    fi
    stop_daemons
fi

if [ "$errors" -gt 0 ]; then
    echo "chaos_soak: $errors problem(s)" >&2
    exit 1
fi
echo "chaos_soak: OK ($phases fault phases, byte-identical reports)"
