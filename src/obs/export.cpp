#include "obs/export.hpp"

#include <ostream>
#include <vector>

namespace lte::obs {

namespace {

/** Category string per kind, so chrome://tracing can filter. */
const char *
span_category(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kChanEst:
      case SpanKind::kWeights:
      case SpanKind::kDemod:
      case SpanKind::kTailCb:
      case SpanKind::kTailReduce:
      case SpanKind::kDecodeCb:
      case SpanKind::kUser:
        return "phy";
      case SpanKind::kSteal:
      case SpanKind::kSubframe:
      case SpanKind::kDispatch:
      case SpanKind::kShed:
        return "sched";
      case SpanKind::kNap:
      case SpanKind::kIdle:
        return "power";
      case SpanKind::kIoFrame:
      case SpanKind::kIoLost:
        return "io";
    }
    return "?";
}

void
write_json_string(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

/** Trace Event Format timestamps are microseconds (doubles). */
double
to_us(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

void
write_event(std::ostream &os, const TraceEvent &event, std::size_t tid,
            bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    const bool instant = event.end_ns == event.begin_ns;
    os << "{\"name\":\"" << span_kind_name(event.kind) << "\",\"cat\":\""
       << span_category(event.kind) << "\",\"ph\":\""
       << (instant ? 'i' : 'X') << "\",\"ts\":" << to_us(event.begin_ns);
    if (!instant)
        os << ",\"dur\":" << to_us(event.end_ns - event.begin_ns);
    else
        os << ",\"s\":\"t\""; // thread-scoped instant
    os << ",\"pid\":0,\"tid\":" << tid << ",\"args\":{\"arg\":"
       << event.arg << "}}";
}

void
write_thread_name(std::ostream &os, std::size_t tid,
                  std::string_view name, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << tid << ",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
}

} // namespace

void
write_chrome_trace(std::ostream &os, const Tracer &tracer,
                   std::string_view process_name)
{
    os << "{\"traceEvents\":[\n";
    bool first = true;

    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":";
    write_json_string(os, process_name);
    os << "}}";
    first = false;

    const std::size_t dispatch_slot = tracer.n_slots() - 1;
    std::vector<TraceEvent> events;
    for (std::size_t tid = 0; tid < tracer.n_slots(); ++tid) {
        const std::string label =
            tid == dispatch_slot && tracer.n_slots() > 1
                ? std::string("dispatch")
                : "worker-" + std::to_string(tid);
        write_thread_name(os, tid, label, first);
        tracer.slot(tid).snapshot(events);
        for (const TraceEvent &event : events)
            write_event(os, event, tid, first);
    }

    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"dropped_events\":"
       << tracer.total_dropped() << "}}\n";
}

void
write_subframe_csv(std::ostream &os, const SubframeSeries &series,
                   double deadline_ms)
{
    os << "subframe,cell,t_arrival_ms,t_complete_ms,latency_ms,n_users,"
          "ops,est_activity,active_workers,deadline_met\n";
    for (std::size_t i = 0; i < series.size(); ++i) {
        const SubframeSample &s = series.at(i);
        const double latency = s.latency_ms();
        os << s.subframe_index << ',' << s.cell_id << ','
           << static_cast<double>(s.t_arrival_ns) / 1e6 << ','
           << static_cast<double>(s.t_complete_ns) / 1e6 << ','
           << latency << ',' << s.n_users << ',' << s.ops << ','
           << s.est_activity << ',' << s.active_workers << ','
           << (latency <= deadline_ms ? 1 : 0) << '\n';
    }
}

} // namespace lte::obs
