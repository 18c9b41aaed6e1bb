/**
 * @file
 * Fig. 16 — estimated power when power gating 8-core domains from the
 * workload estimate (Eqs. 6-9), overlaid on NONAP / IDLE / NAP+IDLE.
 */
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Fig. 16: power gating vs clock gating", args);

    core::UplinkStudy study(args.study_config());
    study.prepare();

    const mgmt::PowerPolicy policies[] = {
        mgmt::PowerPolicy::nonap(), mgmt::PowerPolicy::idle(),
        mgmt::PowerPolicy::nap_idle(), mgmt::PowerPolicy::power_gating()};

    std::vector<std::vector<double>> rms;
    std::vector<double> averages;
    std::vector<double> activity;
    std::size_t n = SIZE_MAX;
    for (std::size_t k = 0; k < 4; ++k) {
        const auto outcome = study.run_policy(policies[k]);
        rms.push_back(
            power::PowerModel::rms_windows(outcome.series, 0.1));
        averages.push_back(outcome.avg_power_w);
        n = std::min(n, rms.back().size());
        // Activity per window for the IDLE run (low-load detection).
        if (k == 1)
            activity = bench::activity_windows(outcome.sim);
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
    args.maybe_write_csv(set, "fig16_power_gating");

    // Low-load reduction of PowerGating vs IDLE (the >24% claim).
    double best_low_gap = 0.0, best_low_rel = 0.0;
    for (std::size_t i = 0; i < n && i < activity.size(); ++i) {
        if (activity[i] < 0.2) {
            const double gap = rms[1][i] - rms[3][i];
            if (gap > best_low_gap) {
                best_low_gap = gap;
                best_low_rel = gap / rms[1][i];
            }
        }
    }

    std::cout << "\naverages:\n";
    report::TextTable table({"Technique", "Avg power (W)", "Paper (W)"});
    const char *paper[] = {"25", "20.7", "19.9", "18.5"};
    for (std::size_t k = 0; k < 4; ++k) {
        table.add_row({policies[k].name,
                       report::fmt(averages[k], 2), paper[k]});
    }
    table.print(std::cout);

    std::cout << "\npaper:    gating averages 18.5 W (1.4 W / 7% below "
                 "NAP+IDLE); at low\n          load it is >4 W (>24%) "
                 "below IDLE.\nmeasured: gating "
              << report::fmt(averages[3], 1) << " W ("
              << report::fmt(averages[2] - averages[3], 1)
              << " W below NAP+IDLE); low-load gap vs IDLE "
              << report::fmt(best_low_gap, 1) << " W ("
              << report::fmt(100.0 * best_low_rel, 0) << "%)\n";
    return 0;
}
