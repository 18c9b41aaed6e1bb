/**
 * @file
 * Table II — average total power dissipation for all five techniques,
 * with improvements relative to NONAP and relative to IDLE.
 */
#include <iostream>

#include "bench_util.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Table II: average total power", args);

    core::UplinkStudy study(args.study_config());
    study.prepare();

    struct Row
    {
        mgmt::PowerPolicy policy;
        const char *paper_power;
        const char *paper_rel_nonap;
        const char *paper_rel_idle;
    };
    const Row rows[] = {
        {mgmt::PowerPolicy::nonap(), "25", "0%", "+21%"},
        {mgmt::PowerPolicy::idle(), "20.7", "-17%", "0%"},
        {mgmt::PowerPolicy::nap(), "20.5", "-18%", "-1%"},
        {mgmt::PowerPolicy::nap_idle(), "19.9", "-22%", "-4%"},
        {mgmt::PowerPolicy::power_gating(), "18.5", "-26%", "-11%"},
    };

    double powers[5] = {};
    for (std::size_t k = 0; k < 5; ++k)
        powers[k] = study.run_policy(rows[k].policy).avg_power_w;
    const double nonap = powers[0];
    const double idle = powers[1];

    report::TextTable table({"Technique", "Power (W)", "Rel. NONAP",
                             "Rel. IDLE", "Paper (W)", "Paper NONAP",
                             "Paper IDLE"});
    for (std::size_t k = 0; k < 5; ++k) {
        table.add_row(
            {rows[k].policy.name,
             report::fmt(powers[k], 2),
             report::fmt_percent((powers[k] - nonap) / nonap),
             report::fmt_percent((powers[k] - idle) / idle),
             rows[k].paper_power, rows[k].paper_rel_nonap,
             rows[k].paper_rel_idle});
    }
    table.print(std::cout);

    std::cout << "\npaper: these numbers are for the ~50% average-load "
                 "input model; a\n       typical base-station load of "
                 "25% benefits even more (see\n       bench/diurnal_"
                 "study for that scenario).\n";
    return 0;
}
