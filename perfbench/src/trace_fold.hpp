/**
 * @file
 * Folding the spans the engines already emit (obs::SpanKind) into
 * per-stage self time, worker idle share, steal counts, subframe span
 * durations and sample-plane frame residence.
 */
#ifndef PERFBENCH_TRACE_FOLD_HPP
#define PERFBENCH_TRACE_FOLD_HPP

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "stage_pass.hpp"

namespace perfbench {

struct TraceFold
{
    /** Summed task-span time per stage over every worker.  Task spans
     *  are leaves (no span nests inside one), so this is self time. */
    std::array<double, kStageCount> stage_seconds{};
    /** Share of worker time covered by no task span. */
    double idle_frac = 0.0;
    std::uint64_t steals = 0;
    /** kSubframe (dispatch-to-completion) durations, ms. */
    std::vector<double> subframe_ms;
    /** The same, keyed by (cell << 32 | subframe index). */
    std::unordered_map<std::uint64_t, double> subframe_ms_by_key;
    /** kIoFrame ready-ring residence, ms. */
    std::vector<double> io_frame_ms;
    std::uint64_t dropped = 0;
    /** Span kinds that never appeared in the trace. */
    std::vector<std::string> never_emitted;
};

/** Key of one subframe in TraceFold::subframe_ms_by_key. */
inline std::uint64_t
subframe_key(std::uint32_t cell_id, std::uint64_t index)
{
    return (static_cast<std::uint64_t>(cell_id) << 32) | index;
}

/** Fold @p tracer's rings; worker slots are 0..n_workers-1 and the
 *  dispatch thread's slot is n_workers.  @p wall_s is the run's wall
 *  time (the idle denominator). */
TraceFold fold_trace(const lte::obs::Tracer &tracer, std::size_t n_workers,
                     double wall_s);

/** trace.<stage>.share, runtime.steals_per_sf, runtime.idle_frac,
 *  runtime.subframe_ms_p50/p99, obs.trace_dropped; prints the span
 *  kinds never emitted. */
void report_trace_fold(const TraceFold &fold, std::size_t completed,
                       Report &report);

} // namespace perfbench

#endif // PERFBENCH_TRACE_FOLD_HPP
