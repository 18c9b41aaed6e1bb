/**
 * @file
 * Subframe-based power management on the simulated TILEPro64: runs
 * the paper's five strategies over a compressed evaluation workload
 * and prints the power comparison, plus the calibrated workload
 * estimator's slope table (Sec. VI).
 *
 * usage: power_management [subframes]
 */
#include <cstdlib>
#include <iostream>

#include "core/uplink_study.hpp"
#include "report/table.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;

    const std::uint64_t subframes =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;

    core::StudyConfig cfg;
    cfg.scale_to(subframes);
    cfg.sweep.prb_step = 8;
    cfg.sweep.duration_s = 0.4;

    std::cout << "subframe-based power management study ("
              << subframes << " subframes)\n\ncalibrating the "
              << "simulator and the workload estimator...\n";
    core::UplinkStudy study(cfg);
    study.prepare();

    std::cout << "\nestimator slopes k_{L,M} (activity per PRB):\n";
    report::TextTable slopes({"layers", "QPSK", "16QAM", "64QAM"});
    for (std::uint32_t layers = 1; layers <= 4; ++layers) {
        slopes.add_row({std::to_string(layers),
                        report::fmt(study.table().get(
                                        layers, Modulation::kQpsk), 6),
                        report::fmt(study.table().get(
                                        layers, Modulation::k16Qam), 6),
                        report::fmt(study.table().get(
                                        layers, Modulation::k64Qam), 6)});
    }
    slopes.print(std::cout);

    std::cout << "\nrunning the five strategies...\n\n";
    report::TextTable table(
        {"Technique", "Avg power (W)", "Dynamic (W)", "Activity"});
    for (const mgmt::PowerPolicy &policy :
         mgmt::PowerPolicy::paper_presets()) {
        const auto outcome = study.run_policy(policy);
        table.add_row({policy.name,
                       report::fmt(outcome.avg_power_w, 2),
                       report::fmt(outcome.avg_dynamic_w, 2),
                       report::fmt(outcome.sim.activity(), 3)});
    }
    table.print(std::cout);

    std::cout << "\nNAP uses the estimator to clock-gate cores ahead "
                 "of each subframe;\nIDLE gates reactively; NAP+IDLE "
                 "combines both; PowerGating adds the\nEq. 6-9 "
                 "domain-gating model on top.\n";
    return 0;
}
