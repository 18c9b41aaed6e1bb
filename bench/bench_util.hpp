/**
 * @file
 * Shared plumbing for the figure/table regeneration harnesses.
 *
 * Every harness accepts:
 *   --full          run the paper's exact protocol (68 000 subframes,
 *                   fine calibration sweep); the default is a
 *                   compressed run (6 800 subframes) that preserves
 *                   the triangular workload shape
 *   --subframes N   explicit run length
 *   --csv DIR       also write the figure's series as CSV into DIR
 *   --seed S        input-model seed
 */
#ifndef LTE_BENCH_UTIL_HPP
#define LTE_BENCH_UTIL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/uplink_study.hpp"
#include "report/series.hpp"
#include "report/table.hpp"

namespace lte::bench {

struct BenchArgs
{
    bool full = false;
    std::uint64_t subframes = 6800;
    std::string csv_dir;
    std::uint64_t seed = 2012;

    /** Parse argv; prints usage and exits on unknown flags. */
    static BenchArgs parse(int argc, char **argv);

    /**
     * Study configuration scaled to the requested run length; the
     * calibration sweep resolution follows the --full flag.
     */
    core::StudyConfig study_config() const;

    /** Stride for plotted series (the paper plots every 25th
     *  subframe of 68 000; scaled for compressed runs). */
    std::size_t plot_stride() const;

    /**
     * If --csv was given, write @p set to "<dir>/<name>.csv" and
     * report the path on stdout.
     */
    void maybe_write_csv(const report::SeriesSet &set,
                         const std::string &name,
                         std::size_t stride = 1) const;
};

/** Print the standard harness banner. */
void print_banner(const std::string &title, const BenchArgs &args);

/** The saturating one-user subframe of the engine benches:
 *  100 PRB x 4 layers x 64QAM. */
phy::UserParams heavy_user();

/** The value at rank floor(p * (n - 1)) of the sorted @p values
 *  (0 when empty). */
double percentile(std::vector<double> values, double p);

/**
 * Activity of a simulated run per 100 ms window, the resolution of
 * the power-over-time figures' RMS windows; a trailing partial window
 * is dropped.
 */
std::vector<double> activity_windows(const sim::SimResult &result);

} // namespace lte::bench

#endif // LTE_BENCH_UTIL_HPP
