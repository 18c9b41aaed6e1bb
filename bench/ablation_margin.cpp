/**
 * @file
 * Ablation: the Eq. 5 over-provisioning margin.  The paper adds two
 * cores "to provide some margin of error in the estimation"; this
 * harness sweeps the margin and reports the power/responsiveness
 * trade-off that motivates the choice.
 */
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Ablation: Eq. 5 core margin", args);

    core::StudyConfig base_cfg = args.study_config();
    core::UplinkStudy probe(base_cfg);
    probe.prepare();
    // The Eq. 5 margin plays no part in calibration (the sweeps run
    // the NONAP machine without an estimator), so every variant
    // shares the probe's calibration pass.
    const core::Calibration calibration = probe.calibration();

    report::TextTable table({"margin", "Avg power (W)",
                             "mean latency (sf)", "max latency",
                             "99% deadline (3 sf)"});
    for (std::uint32_t margin : {0u, 1u, 2u, 4u, 8u}) {
        core::StudyConfig cfg = base_cfg;
        cfg.sim.core_margin = margin;
        core::UplinkStudy study(cfg);
        study.adopt_calibration(calibration);
        const auto outcome =
            study.run_policy(mgmt::PowerPolicy::nap_idle());
        table.add_row(
            {std::to_string(margin),
             report::fmt(outcome.avg_power_w, 2),
             report::fmt(outcome.sim.mean_latency(), 2),
             report::fmt(outcome.sim.max_latency(), 1),
             report::fmt(100.0 * outcome.sim.deadline_hit_rate(3.0),
                         1) + "%"});
    }
    table.print(std::cout);

    std::cout << "\nsmaller margins save power but eat into the "
                 "2-3-subframe responsiveness\nbudget when the "
                 "estimate falls short; the paper's margin of 2 buys "
                 "safety\nfor a fraction of a Watt.\n";
    return 0;
}
