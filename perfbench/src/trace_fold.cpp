#include "trace_fold.hpp"

#include <algorithm>
#include <string>

namespace perfbench {

namespace {

using lte::obs::SpanKind;

/** The serial-pass stage a worker task span belongs to (or -1). */
int
stage_of(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kChanEst: return kChanEst;
      case SpanKind::kWeights: return kWeights;
      case SpanKind::kDemod: return kDemod;
      case SpanKind::kTailCb: return kTail;
      case SpanKind::kDecodeCb: return kDecode;
      case SpanKind::kTailReduce: return kReduce;
      default: return -1;
    }
}

double
span_ms(const lte::obs::TraceEvent &e)
{
    return static_cast<double>(e.end_ns - e.begin_ns) / 1e6;
}

} // namespace

TraceFold
fold_trace(const lte::obs::Tracer &tracer, std::size_t n_workers,
           double wall_s)
{
    TraceFold fold;
    std::array<std::uint64_t, lte::obs::kSpanKindCount> seen{};
    std::vector<lte::obs::TraceEvent> events;
    double task_s = 0.0;
    for (std::size_t slot = 0; slot < tracer.n_slots(); ++slot) {
        tracer.slot(slot).snapshot(events);
        fold.dropped += tracer.slot(slot).dropped();
        for (const lte::obs::TraceEvent &e : events) {
            ++seen[static_cast<std::size_t>(e.kind)];
            const int stage = stage_of(e.kind);
            if (stage >= 0) {
                const double s =
                    static_cast<double>(e.end_ns - e.begin_ns) / 1e9;
                fold.stage_seconds[static_cast<std::size_t>(stage)] += s;
                task_s += s;
            } else if (e.kind == SpanKind::kSteal) {
                ++fold.steals;
            } else if (e.kind == SpanKind::kSubframe) {
                // Single-cell engines record untagged args: cell 1.
                const std::uint32_t cell =
                    std::max<std::uint32_t>(1, lte::obs::arg_cell(e.arg));
                fold.subframe_ms.push_back(span_ms(e));
                fold.subframe_ms_by_key[subframe_key(
                    cell, lte::obs::arg_value(e.arg))] = span_ms(e);
            } else if (e.kind == SpanKind::kIoFrame) {
                fold.io_frame_ms.push_back(span_ms(e));
            }
        }
    }
    const double capacity = wall_s * static_cast<double>(n_workers);
    fold.idle_frac =
        capacity > 0.0 ? std::max(0.0, 1.0 - task_s / capacity) : 0.0;
    for (std::size_t k = 0; k < seen.size(); ++k) {
        if (seen[k] == 0) {
            fold.never_emitted.push_back(lte::obs::span_kind_name(
                static_cast<SpanKind>(k)));
        }
    }
    return fold;
}

void
report_trace_fold(const TraceFold &fold, std::size_t completed,
                  Report &report)
{
    double total = 0.0;
    for (double s : fold.stage_seconds)
        total += s;
    for (std::size_t s = 0; s < kStageCount; ++s) {
        report.metric(std::string("trace.") + kStageNames[s] + ".share",
                      total > 0.0 ? fold.stage_seconds[s] / total : 0.0,
                      "ratio");
    }
    report.metric("runtime.steals_per_sf",
                  completed > 0 ? static_cast<double>(fold.steals) /
                                      static_cast<double>(completed)
                                : 0.0,
                  "count");
    report.metric("runtime.idle_frac", fold.idle_frac, "ratio");
    report.metric("runtime.subframe_ms_p50",
                  quantile(fold.subframe_ms, 0.5), "ms");
    report.metric("runtime.subframe_ms_p99",
                  quantile(fold.subframe_ms, 0.99), "ms");
    report.metric("obs.trace_dropped", static_cast<double>(fold.dropped),
                  "count");
    std::string never;
    for (const std::string &name : fold.never_emitted)
        never += (never.empty() ? "" : " ") + name;
    report.fact("obs.span_kinds_never_emitted", never);
}

} // namespace perfbench
