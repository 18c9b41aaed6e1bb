/**
 * @file
 * The benchmark's three workloads.  Each fills a Report with its
 * end-to-end metrics (always) and its per-layer metrics (when
 * args.trace), and records a failure for every output gate that does
 * not hold.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/** Paper traffic, one full Fig. 6/10 ramp, closed loop, 3 workers. */
void run_fig6_ramp(const Args &args, Report &report);

/** Two offloaded cells, real turbo decode, fixed open-loop TTI. */
void run_decode_2cell(const Args &args, Report &report);

/** The city-scale ChipFleet study (simulated chips). */
void run_city_fleet(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
