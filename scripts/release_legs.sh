# The legs that run the binaries of one built tree: the release gate of
# scripts/check.sh and both passes of scripts/coverage.sh call the same
# function, so the two scripts cannot drift apart.  Source this file
# from the repository root, then:
#
#   release_legs build             # every leg
#   release_legs build programs    # only the benches and examples
#
# The "programs" form skips the legs that run test binaries; the
# coverage script uses it to count what the benches and examples reach
# without any test.  Every leg exits non-zero on a failure (the caller
# runs under set -e).

release_legs() {
    local tree="$1"
    local mode="${2:-all}"

    # Real-decode leg: the whole task-graph suite again with the
    # max-log-MAP decoder on (LTE_REAL_TURBO=1) — per-codeblock decode
    # tasks fan out across the pool and the digest must stay
    # bit-identical to the serial engine, on top of the suite's
    # SIMD/scalar parity.
    if [[ "${mode}" == all ]]; then
        echo "==> ${tree}: real-turbo leg (LTE_REAL_TURBO=1)"
        LTE_REAL_TURBO=1 "./${tree}/tests/test_task_graph"
    fi

    # Micro-bench smoke: prove the decode benches (both twins), the
    # front-end kernel benches (FFT forward/inverse, channel
    # estimation, combiner weights, antenna combining, soft demapping),
    # the bit back-end benches (soft descrambling, per-user tail
    # tasks, CRC-24) and the op model's per-user pricing run; real
    # measurements use longer repetitions (see README).
    echo "==> ${tree}: kernel micro-bench smoke"
    "./${tree}/bench/kernels_micro" \
        --benchmark_filter='TurboDecode(Simd|Scalar)|Fft(Forward|Inverse)|ChannelEstimate|CombinerWeights|SoftDemap|Combine|Descramble|TailTask|Crc24|UserTaskCosts' \
        --benchmark_min_time=0.05

    # Example smoke: both receive-chain examples exit non-zero on a CRC
    # or payload mismatch (full_airlink goes through the carrier FFT
    # and a time-domain multipath channel first).
    local example
    for example in quickstart full_airlink; do
        echo "==> ${tree}: example ${example}"
        "./${tree}/examples/${example}" > /dev/null
    done

    if [[ "${mode}" == all ]]; then
        # Multi-cell sweep: the cell-count-bearing suites honour
        # LTE_CELLS, so the same binary proves per-cell digest parity
        # at one, two and four cells sharing the pool.
        local cells
        for cells in 1 2 4; do
            echo "==> ${tree}: multi-cell sweep (LTE_CELLS=${cells})"
            LTE_CELLS="${cells}" "./${tree}/tests/test_multicell"
        done

        # MAC policy sweep: the closed-loop suite honours LTE_MAC, so
        # the same binary proves grant conservation (offered ==
        # delivered + residual) with each scheduler policy driving a
        # live streaming engine.  The LTE_MAC_IO=offload leg
        # additionally draws grants on the sample-plane producer thread
        # while completion feedback lands on the dispatch thread — the
        # genuinely concurrent closed-loop shape.
        local policy
        for policy in rr pf edf; do
            echo "==> ${tree}: MAC policy sweep (LTE_MAC=${policy})"
            LTE_MAC="${policy}" "./${tree}/tests/test_mac"
        done
        echo "==> ${tree}: MAC offloaded-io leg (LTE_MAC=pf LTE_MAC_IO=offload)"
        LTE_MAC=pf LTE_MAC_IO=offload "./${tree}/tests/test_mac"
    fi

    # Study-bench leg: every simulated figure/table bench, the
    # ablations, the DVFS and diurnal studies, the multi-cell scaling
    # study and the city-scale fleet smoke (placement -> per-slice
    # calibration -> per-chip policy optimisation on a tiny fleet) run
    # end to end on a short protocol.  The simulator runs no PHY
    # kernel, so the stdout of every bench that prints no wall-clock
    # value is pinned byte for byte by scripts/study_bench.sha256 (the
    # same hashes for LTE_SIMD=ON and OFF).  obs_trace_dump writes its
    # six files next to them: the three simulated-study files
    # (obs_study.csv, obs_study_trace.json, obs_study_metrics.csv) are
    # pinned too, while its live-engine files and multicell_scaling
    # carry wall-clock values and are only run.
    echo "==> ${tree}: simulated study benches (--subframes 680, pinned stdout)"
    local study_dir bench
    study_dir="$(mktemp -d)"
    for bench in table1_dynamic_power table2_total_power fig11_calibration \
                 fig12_estimation fig13_active_cores fig14_nap_power \
                 fig15_techniques fig16_power_gating diurnal_study \
                 ablation_domains ablation_margin ablation_wake_period \
                 dvfs_study; do
        "./${tree}/bench/${bench}" --subframes 680 > "${study_dir}/${bench}.txt"
    done
    "./${tree}/bench/city_scale" --smoke > "${study_dir}/city_scale_smoke.txt"
    "./${tree}/bench/obs_trace_dump" --subframes 680 --csv "${study_dir}" > /dev/null
    local study_pins
    study_pins="$(pwd)/scripts/study_bench.sha256"
    (cd "${study_dir}" && sha256sum -c "${study_pins}")
    rm -rf "${study_dir}"
    "./${tree}/bench/multicell_scaling" --subframes 680 > /dev/null
}
