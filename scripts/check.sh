#!/usr/bin/env bash
# Full local gate: Release build + tests, the AddressSanitizer build +
# tests, then the ThreadSanitizer build running the concurrency-heavy
# runtime tests.  Mirrors what CI would run; use before every push.
#
#   scripts/check.sh          # release + asan + tsan
#   scripts/check.sh --ubsan  # additionally run the UBSan suite
#
# LTE_SIMD=ON|OFF (default ON) selects the SIMD kernel configuration
# for every preset, so the whole gate can be run in both modes:
#   LTE_SIMD=OFF scripts/check.sh --ubsan
# Every preset builds with LTE_WERROR=ON: a compiler warning fails the
# gate.
set -euo pipefail

cd "$(dirname "$0")/.."

LTE_SIMD="${LTE_SIMD:-ON}"

run_preset() {
    local preset="$1"
    echo "==> configure/build/test preset '${preset}' (LTE_SIMD=${LTE_SIMD})"
    cmake --preset "${preset}" -DLTE_SIMD="${LTE_SIMD}" -DLTE_WERROR=ON
    cmake --build --preset "${preset}" -j "$(nproc)"
    ctest --preset "${preset}"
}

run_preset release

# The release tree's legs (real-turbo decode, the micro-bench and
# example smoke, the LTE_CELLS / LTE_MAC sweeps and the pinned
# study-bench outputs) live in scripts/release_legs.sh, which
# scripts/coverage.sh runs as well.
source scripts/release_legs.sh
release_legs build

# Pinned-digest leg: perfbench/gates.json pins the fig6 and decode
# digests of the default (SIMD) build on two seeds, so a rounding
# change in any kernel fails here, not only in the benchmark.  The
# shortest run the driver accepts still does its minimum repetitions.
if [[ "${LTE_SIMD}" == "ON" ]]; then
    for workload in fig6_ramp decode_2cell; do
        for seed in 2012 7; do
            echo "==> perfbench digest gate (${workload}, seed ${seed})"
            python3 perfbench/run.py --workload "${workload}" \
                --seed "${seed}" --seconds 0.001 --trace 0
        done
    done
fi

run_preset asan
# The tsan test preset filters to the concurrency/runtime suites (see
# CMakePresets.json): pool interleavings, trace-ring export races, the
# serial-vs-parallel validation, the engine suites and the lossless
# (deadline_ms = 0) dispatch-core suites EngineParity, FlowControl and
# DeltaPacing under ThreadSanitizer.
run_preset tsan

# Streaming overload soak: the admission/shed accounting must balance
# with genuinely concurrent subframes in flight, swept across the
# in-flight bound (1 = lock-step degenerate case, 4 = deep pipeline).
for inflight in 1 4; do
    echo "==> tsan streaming overload soak (LTE_STREAM_MAX_INFLIGHT=${inflight})"
    LTE_STREAM_MAX_INFLIGHT="${inflight}" \
        ./build-tsan/tests/test_streaming \
        --gtest_filter='StreamingOverload.*:StreamingParity.*'
done

# Multi-cell soak under TSan: two cells racing one shared pool through
# the round-robin admission path and the per-cell reap lanes.
echo "==> tsan multi-cell soak (LTE_CELLS=2)"
LTE_CELLS=2 ./build-tsan/tests/test_multicell

# Continuation-graph sweep: the task-graph suite honours LTE_WORKERS.
# The 1-worker leg is the no-blocking-joins proof — a single worker
# must drain every continuation (including the 48-task tail fan-out)
# from its own deque; any reintroduced stage wait deadlocks it.  The
# 8-worker leg maximises stealing pressure on the final-decrement
# continuation enqueues under TSan.
for workers in 1 8; do
    echo "==> tsan task-graph sweep (LTE_WORKERS=${workers})"
    LTE_WORKERS="${workers}" ./build-tsan/tests/test_task_graph
done

# Real-decode under TSan: workers race per-codeblock decode tasks and
# per-thread turbo workspaces while CRC early termination varies the
# per-task runtimes.
echo "==> tsan real-turbo leg (LTE_REAL_TURBO=1)"
LTE_REAL_TURBO=1 ./build-tsan/tests/test_task_graph

# Fleet soak under TSan: chip workers race the shared plan counter
# and per-chip result slots while each chip's study spins its own
# simulator; the threaded run must stay bit-identical to serial.
echo "==> tsan city-scale fleet soak"
./build-tsan/tests/test_fleet

if [[ "${1:-}" == "--ubsan" ]]; then
    run_preset ubsan
fi

echo "==> all checks passed"
