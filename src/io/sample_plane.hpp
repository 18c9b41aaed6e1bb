/**
 * @file
 * The sample plane: pooled IQ subframe frames recycled between one
 * producer thread (the signal source) and one consumer thread (the
 * engine's admission loop) through a pair of lock-free SPSC rings.
 *
 * Ownership protocol (DESIGN.md §3i):
 *
 *   free ring ──try_acquire_free──▶ producer fills ──publish_ready──▶
 *   ready ring ──try_pop_ready──▶ consumer processes ──release──▶
 *   free ring ...
 *
 * A frame is owned by exactly one side at a time; the rings' release/
 * acquire pairs carry the contents across threads.  All frames are
 * allocated up front — the steady state moves only pointers.
 *
 * Late/lost semantics: when the producer finds the free ring empty at
 * a tick, the receiver has fallen a full pool behind.  In deadline
 * mode the frame is *lost* — the source's stream still advances (a
 * fronthaul does not pause because the modem is busy) and the loss is
 * counted for the shed policies.  In lossless mode (deadline 0) the
 * producer blocks instead, preserving the exact inline parameter
 * sequence and therefore bit-identical digests.  A frame produced
 * more than one TTI after its scheduled tick is counted *late* —
 * delivered anyway, but the admission deadline clock has already been
 * eating into its budget.
 */
#ifndef LTE_IO_SAMPLE_PLANE_HPP
#define LTE_IO_SAMPLE_PLANE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "io/spsc_ring.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"

namespace lte::io {

class CaptureWriter;

/**
 * One pooled IQ subframe buffer.
 *
 * `signals` is the per-user pointer view the receiver consumes; for a
 * generator source the pointers reference the generator's long-lived
 * pools (zero-copy), for replay they reference this frame's own
 * `storage`.  Either way the pointers are valid from publish_ready()
 * until release().
 */
struct IqFrame
{
    /** Monotone production sequence number (per feed). */
    std::uint64_t seq = 0;
    /** Arrival timestamp on the engine's clock, stamped at publish. */
    std::uint64_t t_arrival_ns = 0;
    /** Scheduling parameters of the subframe carried by this frame. */
    phy::SubframeParams params;
    /** Per-user signal view, aligned with params.users. */
    std::vector<const phy::UserSignal *> signals;
    /** Frame-owned sample storage (replay sources only; generator
     *  sources leave it empty and point into their pools). */
    std::vector<phy::UserSignal> storage;
};

/**
 * A pluggable origin of IQ subframes, driven from the producer thread.
 */
class SampleSource
{
  public:
    virtual ~SampleSource() = default;

    /**
     * Fill @p frame (params + signals; storage if self-backed) with
     * the next subframe of the stream.  @return false when the stream
     * is exhausted (finite replay); the feed then stops.
     *
     * Steady-state contract: implementations must reuse the frame's
     * existing capacity — no heap allocation once shapes have been
     * seen once.
     */
    virtual bool produce(IqFrame &frame) = 0;

    /**
     * Advance past one subframe without materialising it — called
     * when a tick's frame is lost to pool exhaustion, so the stream
     * position stays aligned with wall-clock ticks.  Sources without
     * positional state may keep the no-op default.
     */
    virtual void skip() {}
};

/**
 * The frame pool and its two recycling rings.  Construction allocates
 * everything; afterwards the transport only moves pointers.
 *
 * Thread roles: try_acquire_free()/publish_ready() belong to the
 * producer thread, try_pop_ready()/release() to the consumer thread.
 * Each ring then has exactly one pusher and one popper, satisfying
 * SpscRing's contract.
 */
class SampleTransport
{
  public:
    explicit SampleTransport(std::size_t n_frames);

    SampleTransport(const SampleTransport &) = delete;
    SampleTransport &operator=(const SampleTransport &) = delete;

    /** Producer: take an empty frame, or nullptr (pool exhausted). */
    IqFrame *try_acquire_free();

    /** Producer: hand a filled frame to the consumer. */
    void publish_ready(IqFrame *frame);

    /** Consumer: take the oldest ready frame, or nullptr (none). */
    IqFrame *try_pop_ready();

    /** Consumer: recycle a consumed frame back to the producer. */
    void release(IqFrame *frame);

    std::size_t n_frames() const { return frames_.size(); }

    /** Racy depth estimates, for monitoring/backpressure heuristics. */
    std::size_t ready_depth() const { return ready_.size(); }
    std::size_t free_depth() const { return free_.size(); }

  private:
    std::vector<std::unique_ptr<IqFrame>> frames_;
    SpscRing<IqFrame *> ready_;
    SpscRing<IqFrame *> free_;
};

/** Producer-side counters, readable from any thread. */
struct FeedStats
{
    std::atomic<std::uint64_t> produced{0};
    /** Ticks whose frame was dropped at the source (pool exhausted). */
    std::atomic<std::uint64_t> lost{0};
    /** Frames delivered more than one TTI after their scheduled tick. */
    std::atomic<std::uint64_t> late{0};
};

/** Pacing and delivery policy shared by every lane of a feed. */
struct FeedConfig
{
    /** Scheduled inter-frame gap in ms (the TTI); 0 = free-running. */
    double delta_ms = 0.0;
    /** Uniform jitter amplitude added to each tick, U[0, jitter_ms). */
    double jitter_ms = 0.0;
    /**
     * Lossless mode: block on pool exhaustion instead of dropping.
     * Pairs with the engine's deadline_ms == 0 backpressure mode so
     * the delivered stream is exactly the inline stream.
     */
    bool lossless = false;
    /**
     * Clock used to stamp IqFrame::t_arrival_ns and to pace ticks.
     * The engine passes its own clock so arrival timestamps line up
     * with admission deadlines; defaults to steady_clock.
     */
    std::function<std::uint64_t()> now_ns;
};

/** One lane of a MultiSampleFeed: a cell's transport + source pair,
 *  plus the per-lane delivery knobs that FeedConfig cannot share. */
struct FeedLane
{
    SampleTransport *transport = nullptr;
    SampleSource *source = nullptr;
    /** Optional per-lane recorder tap (runs on the producer thread). */
    CaptureWriter *recorder = nullptr;
    /** Per-lane jitter stream so staggered cells stay decorrelated. */
    std::uint64_t jitter_seed = 1;
};

/**
 * The producer thread: paces N cell lanes' sources onto their
 * transports on one shared TTI grid (start() launches, stop() joins,
 * also called by the destructor; transports and sources must outlive
 * the feed).
 *
 * One thread walks the grid for every lane: each tick it draws every
 * lane's jittered delivery time, visits the lanes in that order
 * (sleeping toward each), and produces into the lane's own transport,
 * so each ring keeps its single producer and the host spends one
 * pacing loop regardless of cell count.  (A free-running thread per
 * cell would yield-spin n_cells threads toward the same tick and
 * oversubscribe a core.)  A one-lane feed is the single-cell case.
 *
 * In lossless mode a stalled lane blocks the whole producer, which is
 * exactly the backpressure semantics of the shared grid: no lane's
 * stream may advance past a tick another lane still owes.
 */
class MultiSampleFeed
{
  public:
    MultiSampleFeed(std::vector<FeedLane> lanes, FeedConfig config);
    ~MultiSampleFeed();

    MultiSampleFeed(const MultiSampleFeed &) = delete;
    MultiSampleFeed &operator=(const MultiSampleFeed &) = delete;

    /** Launch the producer for @p n_subframes ticks per lane. */
    void start(std::uint64_t n_subframes);

    /** Signal the producer to exit and join it. Idempotent. */
    void stop();

    /** True once every lane has delivered (or lost) every tick. */
    bool finished() const
    {
        return finished_.load(std::memory_order_acquire);
    }

    std::size_t n_lanes() const { return lanes_.size(); }

    /** Per-lane producer counters, readable from any thread. */
    const FeedStats &stats(std::size_t lane = 0) const;

  private:
    void run(std::uint64_t n_subframes);

    std::vector<FeedLane> lanes_;
    FeedConfig config_;
    /** Indexed per lane (FeedStats holds atomics, hence the array). */
    std::unique_ptr<FeedStats[]> stats_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> finished_{false};
};

} // namespace lte::io

#endif // LTE_IO_SAMPLE_PLANE_HPP
