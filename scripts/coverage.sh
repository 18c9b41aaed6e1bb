#!/usr/bin/env bash
# Coverage as a deletion oracle: print the src/ lines that nothing runs.
#
#   scripts/coverage.sh                     # LTE_SIMD=ON
#   LTE_SIMD="ON OFF" scripts/coverage.sh   # both legs, merged
#
# Two passes, each reported as uncovered src/ lines per file and one
# total (scripts/coverage_report.py merges gcov's counts):
#
#   pass A, everything: a Debug build of the coverage preset runs
#     Tier-1 (ctest), the release legs of scripts/check.sh (with their
#     pinned study-bench sha256 check), then every other bench and
#     example on a short protocol.
#   pass B, programs only: a Release build with the same counters runs
#     the benches and examples of pass A and perf_bench's three
#     workloads in both --trace modes, and no test.  A line pass A
#     reaches and pass B does not is a capability only tests turn on.
#
# Each listed LTE_SIMD leg builds its own trees (build-coverage-*), and
# a report merges the legs, so code one leg compiles out still counts.
# perf_bench runs in the ON leg only: perfbench/gates.json pins the
# SIMD digests.  The script fails only when a build, a test or a
# pinned check fails; no coverage figure is a gate.
set -euo pipefail

cd "$(dirname "$0")/.."
source scripts/release_legs.sh

legs="${LTE_SIMD:-ON}"
coverage_flags="--coverage -fprofile-update=atomic"

# Configure and build one tree from the coverage preset, then zero its
# counters so the report covers this run only.
build_tree() {
    local tree="$1" simd="$2" build_type="$3"
    echo "==> configure/build ${tree} (${build_type}, LTE_SIMD=${simd})"
    cmake --preset coverage -B "${tree}" -DLTE_SIMD="${simd}" \
        -DLTE_WERROR=ON -DCMAKE_BUILD_TYPE="${build_type}"
    cmake --build "${tree}" -j "$(nproc)"
    find "${tree}" -name '*.gcda' -delete
}

# Every bench and example release_legs does not run, on its short
# default protocol (the kernel benches each run at least once).
other_programs() {
    local tree="$1" name
    echo "==> ${tree}: the other benches and examples"
    for name in fig07_users fig08_prbs fig09_layers; do
        "./${tree}/bench/${name}" --subframes 680 > /dev/null
    done
    for name in mac_closed_loop opmodel_validation scaling_workers \
                streaming_overload; do
        "./${tree}/bench/${name}" > /dev/null
    done
    "./${tree}/bench/kernels_micro" --benchmark_min_time=0.001 > /dev/null
    "./${tree}/examples/ber_curve" 1 > /dev/null
    "./${tree}/examples/diurnal_day" 680 > /dev/null
    "./${tree}/examples/power_management" 680 > /dev/null
    "./${tree}/examples/uplink_benchmark" 2 20 > /dev/null
}

pass_a=()
pass_b=()
for simd in ${legs}; do
    leg="$(tr '[:upper:]' '[:lower:]' <<< "${simd}")"

    tree="build-coverage-${leg}"
    build_tree "${tree}" "${simd}" Debug
    ctest --test-dir "${tree}" --output-on-failure
    release_legs "${tree}"
    other_programs "${tree}"
    pass_a+=("${tree}")

    tree="build-coverage-programs-${leg}"
    build_tree "${tree}" "${simd}" Release
    release_legs "${tree}" programs
    other_programs "${tree}"
    pass_b+=("${tree}")

    if [[ "${simd}" == ON ]]; then
        # run.py builds into $CARGO_TARGET_DIR/perfbench and configures
        # only a tree that has no cache yet, so configuring it here
        # with the counters makes run.py build, run and gate an
        # instrumented perf_bench.
        perf="build-coverage-perfbench"
        echo "==> configure/build ${perf} (Release, LTE_SIMD=ON)"
        cmake -S perfbench -B "${perf}/perfbench" -DCMAKE_BUILD_TYPE=Release \
            -DCMAKE_CXX_FLAGS="${coverage_flags}"
        cmake --build "${perf}/perfbench" --target perf_bench -j "$(nproc)"
        find "${perf}" -name '*.gcda' -delete
        for workload in fig6_ramp decode_2cell city_fleet; do
            for trace in 0 1; do
                echo "==> ${perf}: ${workload} --trace ${trace}"
                CARGO_TARGET_DIR="${perf}" python3 perfbench/run.py \
                    --workload "${workload}" --seconds 0.001 \
                    --trace "${trace}" > /dev/null
            done
        done
        pass_b+=("${perf}")
    fi
done

python3 scripts/coverage_report.py --title "pass A (tests and programs)" \
    "${pass_a[@]}"
python3 scripts/coverage_report.py --title "pass B (programs only)" \
    "${pass_b[@]}"
