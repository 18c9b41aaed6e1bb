#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace perfbench {

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = Value{value, unit};
}

void
Report::fact(const std::string &name, const std::string &value)
{
    facts_.emplace_back(name, value);
}

void
Report::gate_value(const std::string &name, const std::string &value)
{
    gates_[name] = value;
}

void
Report::fail(const std::string &why)
{
    failures_.push_back(why);
}

namespace {

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(std::ostream &os) const
{
    for (const auto &[name, value] : facts_)
        os << "fact   " << name << " = " << value << "\n";
    for (const auto &[name, v] : metrics_)
        os << "metric " << name << " = " << json_number(v.value) << " "
           << v.unit << "\n";

    os << "RESULT {\"correct\": " << (ok() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        os << (first ? "" : ", ") << json_string(name)
           << ": {\"value\": " << json_number(v.value)
           << ", \"unit\": " << json_string(v.unit) << "}";
        first = false;
    }
    os << "}, \"gates\": {";
    first = true;
    for (const auto &[name, value] : gates_) {
        os << (first ? "" : ", ") << json_string(name) << ": "
           << json_string(value);
        first = false;
    }
    os << "}, \"facts\": {";
    first = true;
    for (const auto &[name, value] : facts_) {
        os << (first ? "" : ", ") << json_string(name) << ": "
           << json_string(value);
        first = false;
    }
    os << "}}\n";
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::uint64_t
fold_digest(std::uint64_t digest, std::uint64_t value)
{
    return (digest ^ value) * 0x100000001b3ULL;
}

TimedModel::TimedModel(lte::workload::ParameterModel &inner,
                       std::size_t capacity)
    : inner_(inner), drawn_(capacity, 0)
{
}

lte::phy::SubframeParams
TimedModel::next_subframe()
{
    lte::phy::SubframeParams params = inner_.next_subframe();
    if (params.subframe_index < drawn_.size())
        drawn_[params.subframe_index] = now_ns();
    return params;
}

void
TimedModel::reset()
{
    inner_.reset();
    std::fill(drawn_.begin(), drawn_.end(), 0);
}

CompletionSink::CompletionSink(std::size_t n_cells, std::size_t capacity)
    : capacity_(capacity), done_(n_cells * capacity, 0),
      level_(n_cells * capacity, lte::phy::DegradeLevel::kNone)
{
}

void
CompletionSink::on_subframe_complete(
    const lte::runtime::SubframeOutcome &outcome,
    lte::phy::DegradeLevel level)
{
    const std::size_t lane = outcome.cell_id - 1;
    const std::size_t slot = lane * capacity_ + outcome.subframe_index;
    if (outcome.subframe_index < capacity_ && slot < done_.size()) {
        done_[slot] = now_ns();
        level_[slot] = level;
    }
}

void
CompletionSink::on_subframe_shed(std::uint32_t, std::uint64_t)
{
}

std::int64_t
CompletionSink::completed_ns(std::size_t lane, std::size_t index) const
{
    const std::size_t slot = lane * capacity_ + index;
    return index < capacity_ && slot < done_.size() ? done_[slot] : 0;
}

lte::phy::DegradeLevel
CompletionSink::level(std::size_t lane, std::size_t index) const
{
    const std::size_t slot = lane * capacity_ + index;
    return index < capacity_ && slot < level_.size()
        ? level_[slot]
        : lte::phy::DegradeLevel::kNone;
}

} // namespace perfbench
