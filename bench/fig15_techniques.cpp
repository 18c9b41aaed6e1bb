/**
 * @file
 * Fig. 15 — measured power over time for NONAP, IDLE, NAP, and
 * NAP+IDLE (100 ms RMS windows).
 */
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner(
        "Fig. 15: power, NONAP / IDLE / NAP / NAP+IDLE", args);

    core::UplinkStudy study(args.study_config());
    study.prepare();

    const mgmt::PowerPolicy policies[] = {
        mgmt::PowerPolicy::nonap(), mgmt::PowerPolicy::idle(),
        mgmt::PowerPolicy::nap(), mgmt::PowerPolicy::nap_idle()};

    std::vector<std::vector<double>> rms;
    std::vector<double> averages;
    std::size_t n = SIZE_MAX;
    for (const mgmt::PowerPolicy &policy : policies) {
        const auto outcome = study.run_policy(policy);
        rms.push_back(
            power::PowerModel::rms_windows(outcome.series, 0.1));
        averages.push_back(outcome.avg_power_w);
        n = std::min(n, rms.back().size());
    }

    std::vector<double> t;
    for (std::size_t i = 0; i < n; ++i)
        t.push_back(0.1 * static_cast<double>(i + 1));
    report::SeriesSet set("time_s", t);
    for (std::size_t k = 0; k < 4; ++k) {
        rms[k].resize(n);
        set.add(policies[k].name, rms[k]);
    }
    set.print_summary(std::cout);
    args.maybe_write_csv(set, "fig15_techniques");

    std::cout << "\naverages:\n";
    report::TextTable table({"Technique", "Avg power (W)", "Paper (W)"});
    const char *paper[] = {"25", "20.7", "20.5", "19.9"};
    for (std::size_t k = 0; k < 4; ++k) {
        table.add_row({policies[k].name,
                       report::fmt(averages[k], 2), paper[k]});
    }
    table.print(std::cout);

    std::cout << "\npaper: NAP+IDLE combines both techniques for the "
                 "lowest power\n       (3% below NAP alone, 20% below "
                 "NONAP); IDLE is ~1% above NAP\n       on average "
                 "because napping cores keep polling for work.\n";
    return 0;
}
