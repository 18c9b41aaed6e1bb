#include "obs/trace.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lte::obs {

const char *
span_kind_name(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kChanEst: return "chanest";
      case SpanKind::kWeights: return "weights";
      case SpanKind::kDemod: return "demod";
      case SpanKind::kUser: return "user";
      case SpanKind::kSteal: return "steal";
      case SpanKind::kNap: return "nap";
      case SpanKind::kIdle: return "idle";
      case SpanKind::kSubframe: return "subframe";
      case SpanKind::kDispatch: return "dispatch";
      case SpanKind::kShed: return "shed";
      case SpanKind::kTailCb: return "tail_cb";
      case SpanKind::kTailReduce: return "tail_reduce";
      case SpanKind::kDecodeCb: return "decode_cb";
      case SpanKind::kIoFrame: return "io_frame";
      case SpanKind::kIoLost: return "io_lost";
    }
    return "?";
}

void
ObsConfig::validate() const
{
    LTE_CHECK(events_per_thread >= 1, "need at least one event slot");
    LTE_CHECK(series_capacity >= 1, "need at least one series slot");
}

ThreadTrace::ThreadTrace(std::size_t capacity) : ring_(capacity)
{
    LTE_CHECK(capacity >= 1, "ring needs at least one slot");
}

void
ThreadTrace::record(const TraceEvent &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[static_cast<std::size_t>(recorded_ % ring_.size())] = event;
    ++recorded_;
}

std::size_t
ThreadTrace::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(recorded_, ring_.size()));
}

std::uint64_t
ThreadTrace::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_;
}

std::uint64_t
ThreadTrace::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void
ThreadTrace::snapshot(std::vector<TraceEvent> &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto retained = static_cast<std::size_t>(
        std::min<std::uint64_t>(recorded_, ring_.size()));
    out.clear();
    out.reserve(retained);
    const std::uint64_t first = recorded_ - retained;
    for (std::size_t i = 0; i < retained; ++i) {
        out.push_back(
            ring_[static_cast<std::size_t>((first + i) % ring_.size())]);
    }
}

Tracer::Tracer(std::size_t n_slots, const ObsConfig &config)
    : epoch_(std::chrono::steady_clock::now())
{
    config.validate();
    LTE_CHECK(n_slots >= 1, "tracer needs at least one slot");
    slots_.reserve(n_slots);
    for (std::size_t i = 0; i < n_slots; ++i) {
        slots_.push_back(
            std::make_unique<ThreadTrace>(config.events_per_thread));
    }
}

std::uint64_t
Tracer::total_recorded() const
{
    std::uint64_t total = 0;
    for (const auto &slot : slots_)
        total += slot->recorded();
    return total;
}

std::uint64_t
Tracer::total_dropped() const
{
    std::uint64_t total = 0;
    for (const auto &slot : slots_)
        total += slot->dropped();
    return total;
}

SubframeSeries::SubframeSeries(std::size_t capacity)
{
    LTE_CHECK(capacity >= 1, "series needs at least one slot");
    samples_.resize(capacity);
}

void
SubframeSeries::push(const SubframeSample &sample)
{
    if (size_ == samples_.size()) {
        ++dropped_;
        return;
    }
    samples_[size_++] = sample;
}

void
SubframeSeries::clear()
{
    size_ = 0;
    dropped_ = 0;
}

} // namespace lte::obs
