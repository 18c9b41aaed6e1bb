#include "io/sample_plane.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "io/capture.hpp"

namespace lte::io {

namespace {

std::uint64_t
steady_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

SampleTransport::SampleTransport(std::size_t n_frames)
    : ready_(ceil_pow2(n_frames < 2 ? 2 : n_frames)),
      free_(ceil_pow2(n_frames < 2 ? 2 : n_frames))
{
    LTE_CHECK(n_frames >= 2, "sample transport needs at least 2 frames");
    frames_.reserve(n_frames);
    for (std::size_t i = 0; i < n_frames; ++i) {
        frames_.push_back(std::make_unique<IqFrame>());
        // Pre-threading, so pushing from this (future consumer-role)
        // thread is fine; the ring holds every frame by construction.
        const bool ok = free_.try_push(frames_.back().get());
        LTE_ASSERT(ok, "free ring must hold the whole pool");
    }
}

IqFrame *
SampleTransport::try_acquire_free()
{
    IqFrame *frame = nullptr;
    return free_.try_pop(frame) ? frame : nullptr;
}

void
SampleTransport::publish_ready(IqFrame *frame)
{
    const bool ok = ready_.try_push(frame);
    // Cannot fail: at most n_frames are in circulation and the ring
    // capacity is at least n_frames.
    LTE_ASSERT(ok, "ready ring overflow");
}

IqFrame *
SampleTransport::try_pop_ready()
{
    IqFrame *frame = nullptr;
    return ready_.try_pop(frame) ? frame : nullptr;
}

void
SampleTransport::release(IqFrame *frame)
{
    const bool ok = free_.try_push(frame);
    LTE_ASSERT(ok, "free ring overflow");
}

MultiSampleFeed::MultiSampleFeed(std::vector<FeedLane> lanes,
                                 FeedConfig config)
    : lanes_(std::move(lanes)), config_(std::move(config)),
      stats_(std::make_unique<FeedStats[]>(lanes_.size()))
{
    LTE_CHECK(!lanes_.empty(), "multi-feed needs at least one lane");
    for (const FeedLane &lane : lanes_) {
        LTE_CHECK(lane.transport != nullptr && lane.source != nullptr,
                  "every lane needs a transport and a source");
    }
    if (!config_.now_ns)
        config_.now_ns = steady_now_ns;
}

MultiSampleFeed::~MultiSampleFeed() { stop(); }

const FeedStats &
MultiSampleFeed::stats(std::size_t lane) const
{
    LTE_CHECK(lane < lanes_.size(), "lane index out of range");
    return stats_[lane];
}

void
MultiSampleFeed::start(std::uint64_t n_subframes)
{
    LTE_CHECK(!thread_.joinable(), "feed already started");
    stop_.store(false, std::memory_order_relaxed);
    finished_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this, n_subframes] { run(n_subframes); });
}

void
MultiSampleFeed::stop()
{
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
}

void
MultiSampleFeed::run(std::uint64_t n_subframes)
{
    const std::size_t n_lanes = lanes_.size();
    std::vector<Rng> jitter_rngs;
    jitter_rngs.reserve(n_lanes);
    for (const FeedLane &lane : lanes_)
        jitter_rngs.emplace_back(lane.jitter_seed);
    std::vector<bool> exhausted(n_lanes, false);
    /** This tick's (delivery time, lane) visit plan. */
    std::vector<std::pair<std::uint64_t, std::size_t>> order(n_lanes);

    const double delta_ns = config_.delta_ms * 1e6;
    const double jitter_amp_ns = config_.jitter_ms * 1e6;
    const std::uint64_t t0 = config_.now_ns();

    for (std::uint64_t k = 0; k < n_subframes; ++k) {
        if (stop_.load(std::memory_order_acquire))
            return;

        // Draw every lane's delivery time for this tick, then visit
        // lanes in delivery order so one pacing loop serves them all.
        // Each lane consumes exactly one jitter draw per tick.
        for (std::size_t i = 0; i < n_lanes; ++i) {
            double offset = delta_ns * static_cast<double>(k);
            if (delta_ns > 0.0 && jitter_amp_ns > 0.0)
                offset +=
                    jitter_rngs[i].next_double() * jitter_amp_ns;
            order[i] = {t0 + static_cast<std::uint64_t>(offset), i};
        }
        if (delta_ns > 0.0)
            std::sort(order.begin(), order.end());

        bool any_alive = false;
        for (const auto &[scheduled, i] : order) {
            if (exhausted[i])
                continue;
            any_alive = true;
            if (delta_ns > 0.0) {
                // Sleep toward the lane's tick, then yield-spin the
                // last stretch — once, on the one producer thread,
                // instead of n_cells threads spinning concurrently.
                while (!stop_.load(std::memory_order_acquire)) {
                    const std::uint64_t now = config_.now_ns();
                    if (now >= scheduled)
                        break;
                    const std::uint64_t wait = scheduled - now;
                    if (wait > 200'000)
                        std::this_thread::sleep_for(
                            std::chrono::nanoseconds(wait - 100'000));
                    else
                        std::this_thread::yield();
                }
            }
            if (stop_.load(std::memory_order_acquire))
                return;

            FeedLane &lane = lanes_[i];
            IqFrame *frame = lane.transport->try_acquire_free();
            if (frame == nullptr) {
                if (config_.lossless) {
                    // Backpressure: the shared grid may not advance
                    // past a tick a lane still owes, so the whole
                    // producer stalls with it.
                    while (frame == nullptr &&
                           !stop_.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                        frame = lane.transport->try_acquire_free();
                    }
                    if (frame == nullptr)
                        return;
                } else {
                    stats_[i].lost.fetch_add(
                        1, std::memory_order_relaxed);
                    lane.source->skip();
                    continue;
                }
            }

            if (!lane.source->produce(*frame)) {
                // Stream exhausted (finite replay): park the frame and
                // retire the lane; the grid keeps serving the others.
                exhausted[i] = true;
                continue;
            }

            frame->seq = k;
            frame->t_arrival_ns = config_.now_ns();
            if (delta_ns > 0.0 &&
                frame->t_arrival_ns >
                    scheduled + static_cast<std::uint64_t>(delta_ns))
                stats_[i].late.fetch_add(1, std::memory_order_relaxed);

            if (lane.recorder != nullptr)
                lane.recorder->write(*frame);

            lane.transport->publish_ready(frame);
            stats_[i].produced.fetch_add(1, std::memory_order_relaxed);
        }
        if (!any_alive)
            break;
    }

    finished_.store(true, std::memory_order_release);
}

} // namespace lte::io
