/**
 * @file
 * Host facts printed with every result, and the in-process host peak
 * the per-stage GFLOP/s figures are compared against.
 */
#ifndef PERFBENCH_HOST_HPP
#define PERFBENCH_HOST_HPP

#include "common.hpp"

namespace perfbench {

/** CPU count, SIMD backend, compiler, build type and build options. */
void add_host_facts(Report &report);

/**
 * Measure the single-thread multiply-add peak (GFLOP/s) and the
 * streaming-copy bandwidth over two arrays of at least 4x the
 * last-level cache; report both as host.* metrics with their sizes
 * as facts.  Returns the peak GFLOP/s.
 */
double measure_host_peak(Report &report);

} // namespace perfbench

#endif // PERFBENCH_HOST_HPP
