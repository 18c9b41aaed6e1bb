/**
 * @file
 * Trace exporters.
 *
 * chrome://tracing JSON: the Trace Event Format's "X" (complete) and
 * "i" (instant) phases, with one chrome "thread" per tracer slot, so
 * a dumped timeline opens directly in chrome://tracing or Perfetto
 * (ui.perfetto.dev) and shows per-worker chanest/weights/demod/tail
 * spans, steals, and nap/idle sleep.
 *
 * CSV: the per-subframe activity/deadline series, one row per
 * subframe, for plotting alongside the paper's figures.
 */
#ifndef LTE_OBS_EXPORT_HPP
#define LTE_OBS_EXPORT_HPP

#include <iosfwd>
#include <string_view>

#include "obs/trace.hpp"

namespace lte::obs {

/**
 * Write all recorded spans as a chrome://tracing JSON object
 * ({"traceEvents":[...]}).  Slots are exported as threads of one
 * process named @p process_name; the last slot is labelled as the
 * dispatch thread, the others as workers.
 */
void write_chrome_trace(std::ostream &os, const Tracer &tracer,
                        std::string_view process_name = "lte-uplink");

/**
 * Write the per-subframe activity/deadline series as CSV with header
 *   subframe,cell,t_arrival_ms,t_complete_ms,latency_ms,n_users,ops,
 *   est_activity,active_workers,deadline_met
 * latency_ms is arrival-to-completion (t_complete_ms - t_arrival_ms),
 * so admission-queue wait counts.  A sample meets the deadline when
 * latency_ms <= @p deadline_ms.
 */
void write_subframe_csv(std::ostream &os, const SubframeSeries &series,
                        double deadline_ms);

} // namespace lte::obs

#endif // LTE_OBS_EXPORT_HPP
