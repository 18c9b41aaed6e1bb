#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

namespace lte::bench {

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    BenchArgs args;
    bool subframes_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--full") {
            args.full = true;
        } else if (arg == "--subframes") {
            args.subframes = std::strtoull(next(), nullptr, 10);
            subframes_set = true;
        } else if (arg == "--csv") {
            args.csv_dir = next();
        } else if (arg == "--seed") {
            args.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << argv[0]
                      << " [--full] [--subframes N] [--csv DIR]"
                         " [--seed S]\n";
            std::exit(0);
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            std::exit(2);
        }
    }
    if (args.full && !subframes_set)
        args.subframes = 68000;
    return args;
}

core::StudyConfig
BenchArgs::study_config() const
{
    core::StudyConfig cfg;
    cfg.model.seed = seed;
    cfg.scale_to(subframes);
    if (full) {
        cfg.sweep.prb_step = 4;
        cfg.sweep.duration_s = 1.0;
    } else {
        cfg.sweep.prb_step = 8;
        cfg.sweep.duration_s = 0.4;
    }
    return cfg;
}

std::size_t
BenchArgs::plot_stride() const
{
    // The paper plots every 25th of 68 000 subframes.
    return std::max<std::size_t>(1, subframes / 2720);
}

void
BenchArgs::maybe_write_csv(const report::SeriesSet &set,
                           const std::string &name,
                           std::size_t stride) const
{
    if (csv_dir.empty())
        return;
    const std::string path = csv_dir + "/" + name + ".csv";
    if (report::write_csv_file(set, path, stride))
        std::cout << "wrote " << path << "\n";
    else
        std::cout << "could not write " << path << "\n";
}

void
print_banner(const std::string &title, const BenchArgs &args)
{
    std::cout << "=== " << title << " ===\n"
              << "protocol: "
              << (args.full ? "full (paper)" : "compressed") << ", "
              << args.subframes << " subframes, seed " << args.seed
              << "\n\n";
}

phy::UserParams
heavy_user()
{
    phy::UserParams u;
    u.id = 0;
    u.prb = 100;
    u.layers = 4;
    u.mod = Modulation::k64Qam;
    return u;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    return values[idx];
}

std::vector<double>
activity_windows(const sim::SimResult &result)
{
    std::vector<double> windows;
    double busy = 0.0, dur = 0.0;
    for (const auto &iv : result.intervals) {
        busy += iv.busy_cs;
        dur += iv.dur;
        if (dur >= 0.1 - 1e-9) {
            windows.push_back(
                busy / (static_cast<double>(result.n_workers) * dur));
            busy = dur = 0.0;
        }
    }
    return windows;
}

} // namespace lte::bench
