/**
 * @file
 * Fig. 14 — measured power over time with (NAP) and without (NONAP)
 * estimation-guided core deactivation, plus the activity trace.
 * Power is reported as 100 ms RMS windows like the paper's DAQ
 * post-processing.
 */
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Fig. 14: power, NONAP vs NAP", args);

    core::UplinkStudy study(args.study_config());
    study.prepare();

    const auto nonap = study.run_policy(mgmt::PowerPolicy::nonap());
    const auto nap = study.run_policy(mgmt::PowerPolicy::nap());

    const auto rms_nonap =
        power::PowerModel::rms_windows(nonap.series, 0.1);
    const auto rms_nap = power::PowerModel::rms_windows(nap.series, 0.1);
    const std::size_t n = std::min(rms_nonap.size(), rms_nap.size());

    std::vector<double> t, p_nonap, p_nap, activity;
    // Activity per 100 ms window for the secondary axis.
    const auto act_windows = bench::activity_windows(nonap.sim);
    for (std::size_t i = 0; i < n; ++i) {
        t.push_back(0.1 * static_cast<double>(i + 1));
        p_nonap.push_back(rms_nonap[i]);
        p_nap.push_back(rms_nap[i]);
        activity.push_back(i < act_windows.size() ? act_windows[i]
                                                  : 0.0);
    }

    report::SeriesSet set("time_s", t);
    set.add("NONAP_W", p_nonap);
    set.add("NAP_W", p_nap);
    set.add("activity", activity);
    set.print_summary(std::cout);
    args.maybe_write_csv(set, "fig14_nap_power");

    // Low-load and peak-load gaps.
    double low_gap = 0.0, peak_nonap = 0.0, peak_nap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (activity[i] < 0.2)
            low_gap = std::max(low_gap, p_nonap[i] - p_nap[i]);
        peak_nonap = std::max(peak_nonap, p_nonap[i]);
        peak_nap = std::max(peak_nap, p_nap[i]);
    }

    std::cout << "\npaper:    averages NONAP 25 W vs NAP 20.5 W; "
                 "low-load gap 6-7 W\n          (>25%); NAP peak ~1 W "
                 "below NONAP peak.\nmeasured: averages NONAP "
              << report::fmt(nonap.avg_power_w, 1) << " W vs NAP "
              << report::fmt(nap.avg_power_w, 1)
              << " W; low-load gap " << report::fmt(low_gap, 1)
              << " W; peaks " << report::fmt(peak_nonap, 1) << " vs "
              << report::fmt(peak_nap, 1) << " W\n";
    return 0;
}
