#!/usr/bin/env bash
# ASan+UBSan gate for the robustness layer, run as a ctest entry (see
# tests/CMakeLists.txt; SKIP_RETURN_CODE 77).
#
# Configures a separate build tree with -DMANNA_SANITIZE=address,
# undefined, builds the robustness and chip test binaries, the fig12
# bench and mannad, and runs test_robustness, the timing-only chip
# tests (TimingOnly.*) and the chaos soak (daemon phases included)
# under instrumentation — the fault-injection error paths (torn lines,
# failed fsyncs, signal interrupts, daemon failover) are exactly the
# code that normal runs rarely exercise, and the timing-only chip's
# size-only tile memories hand out null spans, so they get the
# memory-safety pass here. Exits 77 (ctest SKIP) when the toolchain
# cannot link sanitized binaries.
#
# Usage: sanitize_gate.sh [build-dir]   (default: build-sanitize)
set -u
cd "$(dirname "$0")/.."

builddir=${1:-build-sanitize}

# Probe: can the toolchain compile AND link ASan+UBSan? (Containers
# often lack libasan even when the compiler accepts the flag.)
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT INT TERM
echo 'int main(){return 0;}' > "$probe/t.cc"
if ! c++ -fsanitize=address,undefined "$probe/t.cc" -o "$probe/t" \
        > /dev/null 2>&1 || ! "$probe/t"; then
    echo "sanitize_gate: toolchain lacks ASan/UBSan runtime; skipping"
    exit 77
fi

if ! cmake -S . -B "$builddir" -DMANNA_SANITIZE=address,undefined \
        > "$probe/configure.log" 2>&1; then
    echo "sanitize_gate: cmake configure failed:" >&2
    tail -20 "$probe/configure.log" >&2
    exit 1
fi
jobs=$(nproc 2>/dev/null || echo 2)
if ! cmake --build "$builddir" -j"$jobs" \
        --target test_robustness test_sim_chip fig12_strong_scaling \
        mannad \
        > "$probe/build.log" 2>&1; then
    echo "sanitize_gate: sanitized build failed:" >&2
    tail -20 "$probe/build.log" >&2
    exit 1
fi

# Halt on any UBSan report; ASan aborts by default.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
errors=0
if ! "$builddir/tests/test_robustness" > "$probe/robust.log" 2>&1; then
    echo "sanitize_gate: sanitized test_robustness failed:" >&2
    tail -30 "$probe/robust.log" >&2
    errors=$((errors + 1))
fi
if ! "$builddir/tests/test_sim_chip" --gtest_filter='TimingOnly.*' \
        > "$probe/timing.log" 2>&1; then
    echo "sanitize_gate: sanitized TimingOnly tests failed:" >&2
    tail -30 "$probe/timing.log" >&2
    errors=$((errors + 1))
fi
if ! scripts/chaos_soak.sh "$builddir/bench/fig12_strong_scaling" \
        "$builddir/tools/mannad"; then
    echo "sanitize_gate: sanitized chaos soak failed" >&2
    errors=$((errors + 1))
fi

[ "$errors" -eq 0 ] || exit 1
echo "sanitize_gate: OK (ASan+UBSan: test_robustness + TimingOnly + chaos soak)"
