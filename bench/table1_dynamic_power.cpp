/**
 * @file
 * Table I — average power dissipation with the 14 W base power
 * subtracted, for NONAP / IDLE / NAP / NAP+IDLE, with the reduction
 * relative to NONAP.
 */
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner(
        "Table I: average dynamic power (base power excluded)", args);

    core::UplinkStudy study(args.study_config());
    study.prepare();

    const mgmt::PowerPolicy policies[] = {
        mgmt::PowerPolicy::nonap(), mgmt::PowerPolicy::idle(),
        mgmt::PowerPolicy::nap(), mgmt::PowerPolicy::nap_idle()};
    struct PaperRow { const char *power; const char *reduction; };
    const PaperRow paper[] = {
        {"11", "0%"}, {"6.7", "39%"}, {"6.5", "41%"}, {"5.9", "46%"}};

    double nonap_dyn = 0.0;
    report::TextTable table({"Technique", "Power (W)", "Reduction",
                             "Paper (W)", "Paper red."});
    for (std::size_t k = 0; k < 4; ++k) {
        const auto outcome = study.run_policy(policies[k]);
        const double dyn = outcome.avg_dynamic_w;
        if (k == 0)
            nonap_dyn = dyn;
        const double reduction =
            nonap_dyn > 0.0 ? (nonap_dyn - dyn) / nonap_dyn : 0.0;
        table.add_row({policies[k].name,
                       report::fmt(dyn, 2),
                       report::fmt(100.0 * reduction, 0) + "%",
                       paper[k].power, paper[k].reduction});
    }
    table.print(std::cout);

    std::cout << "\npaper: clock gating in any form is key to reducing "
                 "dynamic power;\n       estimation adds a further ~7% "
                 "on average over reactive IDLE.\n";
    return 0;
}
