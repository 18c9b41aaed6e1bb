/**
 * @file
 * Extension study: estimation-driven DVFS (the paper's related-work
 * pointer — Choi et al.'s frame-based DVFS applied to subframes).
 * Per subframe, the clock is scaled to the slowest frequency that
 * still fits the estimated workload, with core power scaling as
 * f * V(f)^2.  Compared against the paper's clock-gating strategies,
 * combined with NAP+IDLE, and against the PR 10 per-domain state
 * machine (discrete rungs + inline gating), reporting both power and
 * the responsiveness cost (per-user completion latency).
 */
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Extension: estimation-driven DVFS", args);

    core::StudyConfig base_cfg = args.study_config();
    core::UplinkStudy study(base_cfg);
    study.prepare();
    // One calibration pass for every variant: the estimator table and
    // the cycles/op scale depend only on the machine geometry and the
    // cost model, never on the power policy under study.
    const core::Calibration calibration = study.calibration();

    auto dvfs_nonap = mgmt::PowerPolicy::nonap();
    dvfs_nonap.dvfs = true;
    dvfs_nonap.name = "DVFS";
    auto dvfs_napidle = mgmt::PowerPolicy::nap_idle();
    dvfs_napidle.dvfs = true;
    dvfs_napidle.name = "DVFS+NAP+IDLE";
    const mgmt::PowerPolicy variants[] = {
        mgmt::PowerPolicy::nonap(), mgmt::PowerPolicy::nap_idle(),
        dvfs_nonap, dvfs_napidle, mgmt::PowerPolicy::domain_dvfs()};

    report::TextTable table({"Variant", "Avg power (W)",
                             "mean latency (subframes)",
                             "max latency", "99% deadline (3 sf)"});
    for (const mgmt::PowerPolicy &policy : variants) {
        core::UplinkStudy run_study(base_cfg);
        run_study.adopt_calibration(calibration);
        const auto outcome = run_study.run_policy(policy);
        table.add_row(
            {policy.name, report::fmt(outcome.avg_power_w, 2),
             report::fmt(outcome.sim.mean_latency(), 2),
             report::fmt(outcome.sim.max_latency(), 1),
             report::fmt(100.0 * outcome.sim.deadline_hit_rate(3.0),
                         1) + "%"});
    }
    table.print(std::cout);

    std::cout << "\nDVFS trades latency headroom for quadratic voltage "
                 "savings; combining\nit with NAP+IDLE stacks both "
                 "mechanisms, at the cost of running closer\nto the "
                 "responsiveness limit (the paper permits 2-3 "
                 "subframes in flight).\nDOMAIN-DVFS quantises the "
                 "clock onto discrete f-V rungs and power-gates\n"
                 "surplus 8-core domains inline, charging wake "
                 "latencies and transition\nenergy instead of assuming "
                 "free switching.\n";
    return 0;
}
