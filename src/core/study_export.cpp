#include "core/study_export.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string_view>

namespace lte::core {

namespace {

/** Stable pid per preset name so merged traces keep tracks apart:
 *  the paper's five strategies take 1..5 in presentation order,
 *  DOMAIN-DVFS 6, and any other policy name 7. */
int
policy_pid(std::string_view name)
{
    constexpr std::string_view kPresets[] = {
        "NONAP", "IDLE", "NAP", "NAP+IDLE", "PowerGating", "DOMAIN-DVFS"};
    const auto *it =
        std::find(std::begin(kPresets), std::end(kPresets), name);
    return 1 + static_cast<int>(it - std::begin(kPresets));
}

double
to_us(double seconds)
{
    return seconds * 1e6;
}

void
counter_event(std::ostream &os, int pid, double ts_us,
              const char *name, double value, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "  {\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"ts\":"
       << ts_us << ",\"name\":\"" << name << "\",\"args\":{\"value\":"
       << value << "}}";
}

} // namespace

void
write_study_csv(std::ostream &os, const StrategyOutcome &outcome,
                std::uint32_t n_workers)
{
    os << "subframe,t0_ms,dur_ms,activity,est_activity,active_cores,"
          "powered_cores,watts\n";
    const auto &sim = outcome.sim;
    for (std::size_t i = 0; i < sim.intervals.size(); ++i) {
        const auto &iv = sim.intervals[i];
        os << i << ',' << iv.t0 * 1e3 << ',' << iv.dur * 1e3 << ','
           << iv.activity(n_workers) << ',' << iv.est_activity << ',';
        if (i < sim.active_cores.size())
            os << sim.active_cores[i];
        os << ',';
        if (i < outcome.powered.size())
            os << outcome.powered[i];
        os << ',';
        if (i < outcome.series.size())
            os << outcome.series[i].watts;
        os << '\n';
    }
}

void
write_study_chrome_trace(std::ostream &os,
                         const StrategyOutcome &outcome,
                         std::uint32_t n_workers)
{
    const int pid = policy_pid(outcome.policy.name);
    os << "{\"traceEvents\":[\n";
    os << "  {\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
       << outcome.policy.name << "\"}}";
    bool first = false;
    const auto &sim = outcome.sim;
    for (std::size_t i = 0; i < sim.intervals.size(); ++i) {
        const auto &iv = sim.intervals[i];
        const double ts = to_us(iv.t0);
        counter_event(os, pid, ts, "busy_cores",
                      iv.activity(n_workers) *
                          static_cast<double>(n_workers),
                      first);
        counter_event(os, pid, ts, "watermark",
                      static_cast<double>(iv.watermark), first);
        counter_event(os, pid, ts, "est_activity", iv.est_activity,
                      first);
        if (i < outcome.powered.size())
            counter_event(os, pid, ts, "powered_cores",
                          static_cast<double>(outcome.powered[i]),
                          first);
        if (i < outcome.series.size())
            counter_event(os, pid, ts, "watts",
                          outcome.series[i].watts, first);
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace lte::core
