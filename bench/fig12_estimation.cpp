/**
 * @file
 * Fig. 12 — measured vs estimated activity, averaged per second
 * (200 subframes at the 5 ms dispatch period), over the full
 * evaluation run.  The paper reports a maximum underestimation of
 * 5.4% and an average error of 1.2%.
 */
#include <cmath>
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Fig. 12: measured vs estimated activity", args);

    core::UplinkStudy study(args.study_config());
    study.prepare();
    const auto outcome = study.run_policy(mgmt::PowerPolicy::nonap());

    const double window_s = 1.0;
    std::vector<double> t, estimated, measured;
    double est_acc = 0.0, busy_acc = 0.0, dur_acc = 0.0;
    double max_err = 0.0, sum_err = 0.0, max_under = 0.0;
    const double workers =
        static_cast<double>(outcome.sim.n_workers);
    for (const auto &iv : outcome.sim.intervals) {
        est_acc += iv.est_activity * iv.dur;
        busy_acc += iv.busy_cs;
        dur_acc += iv.dur;
        if (dur_acc >= window_s - 1e-9) {
            const double est = est_acc / dur_acc;
            const double meas = busy_acc / (workers * dur_acc);
            t.push_back(iv.t0 + iv.dur);
            estimated.push_back(est);
            measured.push_back(meas);
            const double err = std::abs(est - meas);
            max_err = std::max(max_err, err);
            max_under = std::max(max_under, meas - est);
            sum_err += err;
            est_acc = busy_acc = dur_acc = 0.0;
        }
    }

    report::SeriesSet set("time_s", t);
    set.add("estimated", estimated);
    set.add("measured", measured);
    set.print_summary(std::cout);
    args.maybe_write_csv(set, "fig12_estimation");

    const double avg_err =
        t.empty() ? 0.0 : sum_err / static_cast<double>(t.size());
    std::cout << "\npaper:    max error 5.4% (underestimation), "
                 "average error 1.2%\nmeasured: max error "
              << report::fmt(100.0 * max_err, 1)
              << "%, max underestimation "
              << report::fmt(100.0 * max_under, 1)
              << "%, average error " << report::fmt(100.0 * avg_err, 1)
              << "%\n";
    return 0;
}
