/**
 * @file
 * Fig. 13 — estimated number of active cores per subframe (Eq. 5)
 * over the evaluation run.
 */
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Fig. 13: estimated active cores per subframe",
                        args);

    core::UplinkStudy study(args.study_config());
    study.prepare();
    const auto outcome = study.run_policy(mgmt::PowerPolicy::nonap());

    std::vector<double> x, cores;
    RunningStats stats;
    for (std::size_t i = 0; i < outcome.sim.active_cores.size(); ++i) {
        x.push_back(static_cast<double>(i));
        cores.push_back(
            static_cast<double>(outcome.sim.active_cores[i]));
        stats.add(outcome.sim.active_cores[i]);
    }

    report::SeriesSet set("subframe", x);
    set.add("active_cores", cores);
    set.print_summary(std::cout);
    args.maybe_write_csv(set, "fig13_active_cores", args.plot_stride());

    std::cout << "\npaper: the active-core count changes rapidly across "
                 "the whole run,\n       spanning the margin (2) up to "
                 "all 62 workers.\nmeasured: range ["
              << stats.min() << ", " << stats.max() << "], mean "
              << report::fmt(stats.mean(), 1) << "\n";
    return 0;
}
