#!/usr/bin/env bash
# Smoke-test the sweep-parallel bench harness: run a tiny strong-
# scaling sweep twice (serial and with 2 workers) under a wall-clock
# budget and require byte-identical tables.
#
# Usage: bench_smoke.sh <path-to-fig12_strong_scaling> [budget-seconds]
set -euo pipefail

BIN=${1:?usage: bench_smoke.sh <fig12_strong_scaling binary> [budget]}
BUDGET=${2:-120}

OUTDIR=$(mktemp -d)
trap 'rm -rf "$OUTDIR"' EXIT INT TERM

run_budgeted() {
    # timeout(1) when available; otherwise rely on the ctest TIMEOUT.
    if command -v timeout >/dev/null 2>&1; then
        timeout "$BUDGET" "$@"
    else
        "$@"
    fi
}

run_budgeted "$BIN" bench=recall steps=1 jobs=1 > "$OUTDIR/serial.txt"
run_budgeted "$BIN" bench=recall steps=1 jobs=2 > "$OUTDIR/par.txt"

if ! cmp -s "$OUTDIR/serial.txt" "$OUTDIR/par.txt"; then
    echo "FAIL: jobs=1 and jobs=2 outputs differ" >&2
    diff "$OUTDIR/serial.txt" "$OUTDIR/par.txt" >&2 || true
    exit 1
fi

echo "OK: parallel sweep output byte-identical to serial"

# fidelity=fast must render the same table as cycle mode: tensor
# results are bit-identical by contract and per-step cycle costs are
# steady, so even the cycle columns agree. steps=4 so the run actually
# leaves calibration (2 steps) and extrapolates the rest.
run_budgeted "$BIN" bench=recall steps=4 jobs=1 fidelity=cycle \
    > "$OUTDIR/cycle.txt"
run_budgeted "$BIN" bench=recall steps=4 jobs=1 fidelity=fast \
    > "$OUTDIR/fast.txt"

if ! cmp -s "$OUTDIR/cycle.txt" "$OUTDIR/fast.txt"; then
    echo "FAIL: fidelity=fast and fidelity=cycle outputs differ" >&2
    diff "$OUTDIR/cycle.txt" "$OUTDIR/fast.txt" >&2 || true
    exit 1
fi

echo "OK: fidelity=fast output byte-identical to cycle mode"
