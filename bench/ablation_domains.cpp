/**
 * @file
 * Ablation: power-gating domain size.  The paper gates cores in
 * groups of eight ("a reasonable number for a chip of this
 * complexity"); this harness sweeps the domain size, exposing the
 * trade between gating resolution (finer = more cores off) and
 * switching overhead (finer = more transitions).
 */
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Ablation: power-gating domain size", args);

    core::StudyConfig base_cfg = args.study_config();
    core::UplinkStudy probe(base_cfg);
    probe.prepare();
    // The gating domain size only shapes the analytical overlay, not
    // the machine calibration: share the probe's pass.
    const core::Calibration calibration = probe.calibration();

    report::TextTable table({"domain size", "domains", "Avg power (W)",
                             "saving vs NAP+IDLE (W)"});
    double napidle_power = 0.0;
    {
        core::UplinkStudy study(base_cfg);
        study.adopt_calibration(calibration);
        napidle_power =
            study.run_policy(mgmt::PowerPolicy::nap_idle()).avg_power_w;
    }
    for (std::uint32_t domain : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        core::StudyConfig cfg = base_cfg;
        cfg.power.domain_size = domain;
        core::UplinkStudy study(cfg);
        study.adopt_calibration(calibration);
        const auto outcome =
            study.run_policy(mgmt::PowerPolicy::power_gating());
        table.add_row({std::to_string(domain),
                       std::to_string(64 / domain),
                       report::fmt(outcome.avg_power_w, 2),
                       report::fmt(napidle_power - outcome.avg_power_w,
                                   2)});
    }
    table.print(std::cout);

    std::cout << "\nper-core gating (domain 1) maximises static savings"
                 " but needs 64\npower grids; one whole-chip domain "
                 "saves almost nothing because the\nworkload rarely "
                 "drops to zero.  The paper's choice of 8 captures "
                 "most\nof the benefit with a practical grid count.\n";
    return 0;
}
