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
set -euo pipefail

cd "$(dirname "$0")/.."

LTE_SIMD="${LTE_SIMD:-ON}"

run_preset() {
    local preset="$1"
    echo "==> configure/build/test preset '${preset}' (LTE_SIMD=${LTE_SIMD})"
    cmake --preset "${preset}" -DLTE_SIMD="${LTE_SIMD}"
    cmake --build --preset "${preset}" -j "$(nproc)"
    ctest --preset "${preset}"
}

run_preset release

# Real-decode leg: the whole task-graph suite again with the
# max-log-MAP decoder on (LTE_REAL_TURBO=1) — per-codeblock decode
# tasks fan out across the pool and the digest must stay bit-identical
# to the serial engine, on top of the suite's SIMD/scalar parity.
echo "==> release real-turbo leg (LTE_REAL_TURBO=1)"
LTE_REAL_TURBO=1 ./build/tests/test_task_graph

# Turbo micro-bench smoke: prove the decode benches (both twins) run;
# real measurements use longer repetitions (see README).
echo "==> turbo micro-bench smoke"
./build/bench/kernels_micro \
    --benchmark_filter='TurboDecode(Simd|Scalar)' \
    --benchmark_min_time=0.05

# Multi-cell sweep: the cell-count-bearing suites honour LTE_CELLS, so
# the same release binary proves per-cell digest parity at one, two
# and four cells sharing the pool.
for cells in 1 2 4; do
    echo "==> release multi-cell sweep (LTE_CELLS=${cells})"
    LTE_CELLS="${cells}" ./build/tests/test_multicell
done

# Sample-plane sweep: the io suites honour LTE_IO_SOURCE, so the same
# binary proves the offloaded admission invariants with both a live
# generator producer and a record->replay capture stream.
for source in generator replay; do
    echo "==> release sample-plane sweep (LTE_IO_SOURCE=${source})"
    LTE_IO_SOURCE="${source}" ./build/tests/test_io
done

# MAC policy sweep: the closed-loop suite honours LTE_MAC, so the same
# binary proves grant conservation (offered == delivered + residual)
# with each scheduler policy driving a live streaming engine.  The
# LTE_MAC_IO=offload leg additionally draws grants on the sample-plane
# producer thread while completion feedback lands on the dispatch
# thread — the genuinely concurrent closed-loop shape.
for policy in rr pf edf; do
    echo "==> release MAC policy sweep (LTE_MAC=${policy})"
    LTE_MAC="${policy}" ./build/tests/test_mac
done
echo "==> release MAC offloaded-io leg (LTE_MAC=pf LTE_MAC_IO=offload)"
LTE_MAC=pf LTE_MAC_IO=offload ./build/tests/test_mac

# City-scale fleet smoke: placement -> per-slice calibration ->
# per-chip policy optimisation end to end on a tiny fleet (the
# headline 100-cell study is the same binary without --smoke).
echo "==> city-scale fleet smoke"
./build/bench/city_scale --smoke

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
# the WRR admission path and the per-cell reap lanes.
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
