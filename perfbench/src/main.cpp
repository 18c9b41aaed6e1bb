/**
 * @file
 * perf_bench: one receiver benchmark over three workloads.
 *
 *   perf_bench --workload fig6_ramp|decode_2cell|city_fleet
 *              --seed N --seconds S --trace 0|1
 *
 * Prints host facts and every metric it measured as readable lines,
 * then one "RESULT {...}" line that run.py turns into the final JSON.
 * Exits 1 when an output gate fails (after printing the failures but no
 * RESULT line), 2 on bad arguments.
 */
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perf_bench: " << why
              << "\nusage: perf_bench --workload fig6_ramp|decode_2cell|"
                 "city_fleet --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

perfbench::Args
parse(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = std::strtol(value.c_str(), &end, 10) != 0;
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            usage("bad value for " + flag + ": " + value);
    }
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Args args = parse(argc, argv);
    perfbench::Report report;
    perfbench::add_host_facts(report);
    report.fact("run", "workload=" + args.workload +
                           " seed=" + std::to_string(args.seed) +
                           " seconds=" + std::to_string(args.seconds) +
                           " trace=" + (args.trace ? "1" : "0"));
    try {
        if (args.workload == "fig6_ramp")
            perfbench::run_fig6_ramp(args, report);
        else if (args.workload == "decode_2cell")
            perfbench::run_decode_2cell(args, report);
        else if (args.workload == "city_fleet")
            perfbench::run_city_fleet(args, report);
        else
            usage("unknown workload " + args.workload);
    } catch (const std::exception &e) {
        report.fail(std::string("exception: ") + e.what());
    }
    if (!report.ok()) {
        for (const std::string &why : report.failures())
            std::cout << "GATE FAILED: " << why << "\n";
        return 1;
    }
    report.print(std::cout);
    return 0;
}
