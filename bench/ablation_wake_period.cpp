/**
 * @file
 * Ablation: the reactive wake-poll period.  A napping IDLE worker
 * wakes every T to look for work; short periods burn power polling,
 * long periods delay task pickup.  This quantifies the overhead the
 * paper attributes to reactive gating ("this periodical check ...
 * causes overheads that result in a higher power").
 */
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Ablation: IDLE wake-poll period", args);

    core::StudyConfig base_cfg = args.study_config();
    core::UplinkStudy probe(base_cfg);
    probe.prepare();
    // Calibration runs the NONAP machine, where nothing ever naps:
    // the wake period cannot influence it, so share one pass.
    const core::Calibration calibration = probe.calibration();

    report::TextTable table({"wake period (us)", "poll duty",
                             "Avg power (W)", "mean latency (sf)",
                             "max latency"});
    for (double period_us : {50.0, 100.0, 200.0, 500.0, 1000.0}) {
        core::StudyConfig cfg = base_cfg;
        cfg.sim.idle_wake_period_s = period_us * 1e-6;
        // The polling energy scales inversely with the period: the
        // default duty (0.22) corresponds to the default 200 us.
        cfg.power.idle_poll_duty =
            std::min(1.0, 0.22 * 200.0 / period_us);
        core::UplinkStudy study(cfg);
        study.adopt_calibration(calibration);
        const auto outcome = study.run_policy(mgmt::PowerPolicy::idle());
        table.add_row(
            {report::fmt(period_us, 0),
             report::fmt(cfg.power.idle_poll_duty, 3),
             report::fmt(outcome.avg_power_w, 2),
             report::fmt(outcome.sim.mean_latency(), 2),
             report::fmt(outcome.sim.max_latency(), 1)});
    }
    table.print(std::cout);

    std::cout << "\nfast polling approaches NONAP power; slow polling "
                 "approaches NAP power\nbut stretches completion "
                 "latency — the reactive system cannot win both,\n"
                 "which is exactly why the paper's proactive NAP "
                 "estimation helps.\n";
    return 0;
}
