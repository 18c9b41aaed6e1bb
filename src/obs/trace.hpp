/**
 * @file
 * Zero-steady-state-allocation event tracing for the subframe runtime.
 *
 * The paper's power-management argument is built on *measuring*
 * per-subframe activity (Sec. V): both the reactive IDLE gating and
 * the proactive estimator are driven by observed busy time.  This
 * tracer makes that activity visible at task granularity without
 * perturbing the 1 ms hot path:
 *
 *  - one fixed-capacity ring buffer of spans per thread slot, written
 *    only by that slot's thread, so recording is a timestamp pair and
 *    a ring store (no queues, no formatting, no heap);
 *  - every buffer is preallocated at tracer construction, consistent
 *    with the zero-allocation guarantee of tests/test_alloc_free.cpp —
 *    tracing *enabled* still performs zero steady-state allocations;
 *  - when tracing is disabled the runtime carries a null tracer
 *    pointer, so the disabled path costs a single branch.
 *
 * Each ring is guarded by a per-slot mutex so an exporter can read a
 * consistent snapshot while NAP/IDLE workers are still recording
 * their sleep spans; the lock is uncontended on the hot path (the
 * owner thread is the only writer) and never allocates.
 */
#ifndef LTE_OBS_TRACE_HPP
#define LTE_OBS_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace lte::obs {

/** What a recorded span covers (paper Fig. 5 task granularity plus
 *  the runtime's scheduling states). */
enum class SpanKind : std::uint8_t
{
    kChanEst,  ///< one channel-estimation task (antenna x layer)
    kWeights,  ///< combiner-weight join (a continuation task)
    kDemod,    ///< one demodulation task (data symbol x layer)
    kUser,     ///< a whole user's chain (serial engine)
    kSteal,    ///< instant: a task was stolen (arg = victim worker)
    kNap,      ///< proactively deactivated worker sleeping (Sec. V-B)
    kIdle,     ///< reactive IDLE sleep while workless
    kSubframe, ///< dispatch-to-completion of one subframe
    kDispatch, ///< instant: a subframe entered the pool
    kShed,     ///< instant: admission controller dropped a subframe
    kTailCb,   ///< one per-codeblock tail task (arg = codeblock)
    kTailReduce, ///< CRC/EVM reduce closing a user (arg = user id)
    kDecodeCb, ///< one per-codeblock turbo decode (arg = code block)
    kIoFrame,  ///< IQ frame's ready-ring residence (produce..consume)
    kIoLost,   ///< instant: sample-plane frame lost (pool exhausted)
};

/** Number of distinct span kinds (for fixed-size per-kind tallies). */
inline constexpr std::size_t kSpanKindCount =
    static_cast<std::size_t>(SpanKind::kIoLost) + 1;

/** Short stable name used in exports ("chanest", "demod", ...). */
const char *span_kind_name(SpanKind kind);

/**
 * Cell tagging for span arguments: the serving cell rides in the top
 * 16 bits of the 64-bit payload, leaving 48 bits for the original
 * value (user id, task index, subframe index).  Cell 1 records
 * untagged args (cell field 0), so single-cell traces and their
 * consumers are unchanged; every other cell tags the engine's
 * dispatch / shed / subframe / io events, so one shared trace can be
 * split by cell.
 */
inline constexpr std::uint64_t
make_cell_arg(std::uint32_t cell_id, std::uint64_t value)
{
    return (static_cast<std::uint64_t>(cell_id) << 48) |
           (value & 0xFFFFFFFFFFFFULL);
}

/** The cell tag of a span argument (0 = untagged single-cell). */
inline constexpr std::uint32_t
arg_cell(std::uint64_t arg)
{
    return static_cast<std::uint32_t>(arg >> 48);
}

/** The value part of a (possibly cell-tagged) span argument. */
inline constexpr std::uint64_t
arg_value(std::uint64_t arg)
{
    return arg & 0xFFFFFFFFFFFFULL;
}

/** One recorded span; times are nanoseconds since the tracer epoch. */
struct TraceEvent
{
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    /** Kind-specific payload: user id, task index, subframe index,
     *  or victim worker for steals. */
    std::uint64_t arg = 0;
    SpanKind kind = SpanKind::kChanEst;
};

/**
 * Single-writer ring of the most recent @p capacity events.  When the
 * ring wraps, the oldest events are overwritten and counted as
 * dropped rather than blocking or allocating.
 */
class ThreadTrace
{
  public:
    explicit ThreadTrace(std::size_t capacity);

    /** Record one span (writer side; allocation-free). */
    void record(const TraceEvent &event);

    /** Events currently retained (<= capacity). */
    std::size_t size() const;
    /** Events recorded over the ring's lifetime. */
    std::uint64_t recorded() const;
    /** Events lost to ring wrap-around. */
    std::uint64_t dropped() const;
    std::size_t capacity() const { return ring_.size(); }

    /**
     * Copy the retained events, oldest first, into @p out (cleared
     * first).  Takes the slot lock, so it is safe while the owner
     * thread is still recording.
     */
    void snapshot(std::vector<TraceEvent> &out) const;

  private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> ring_;
    std::uint64_t recorded_ = 0;
};

/** Tracer sizing/behaviour; part of the engine configuration. */
struct ObsConfig
{
    /** Master tracing switch: owns the span tracer and the
     *  per-subframe series. */
    bool enabled = false;
    /** Ring capacity per thread slot (events). */
    std::size_t events_per_thread = 1 << 15;
    /** Per-subframe series capacity (samples; see SubframeSeries). */
    std::size_t series_capacity = 1 << 16;

    void validate() const;
};

/**
 * A set of per-thread trace rings sharing one time epoch.  Slot i is
 * written only by thread i (workers 0..n-1; the dispatch/maintenance
 * thread uses the last slot).
 */
class Tracer
{
  public:
    Tracer(std::size_t n_slots, const ObsConfig &config);

    std::size_t n_slots() const { return slots_.size(); }

    /** Nanoseconds from the tracer epoch to @p tp. */
    std::uint64_t
    to_ns(std::chrono::steady_clock::time_point tp) const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                tp - epoch_)
                .count());
    }

    /** Nanoseconds from the tracer epoch to now. */
    std::uint64_t now_ns() const
    {
        return to_ns(std::chrono::steady_clock::now());
    }

    /** Record a span on @p slot (allocation-free). */
    void
    record(std::size_t slot, SpanKind kind, std::uint64_t begin_ns,
           std::uint64_t end_ns, std::uint64_t arg = 0)
    {
        slots_[slot]->record(TraceEvent{begin_ns, end_ns, arg, kind});
    }

    /** Record an instant event (begin == end) on @p slot. */
    void
    record_instant(std::size_t slot, SpanKind kind, std::uint64_t t_ns,
                   std::uint64_t arg = 0)
    {
        record(slot, kind, t_ns, t_ns, arg);
    }

    const ThreadTrace &slot(std::size_t i) const { return *slots_[i]; }

    /** Total events recorded / dropped across all slots. */
    std::uint64_t total_recorded() const;
    std::uint64_t total_dropped() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    /** unique_ptr per slot: stable addresses, no false sharing of the
     *  per-slot mutexes. */
    std::vector<std::unique_ptr<ThreadTrace>> slots_;
};

/** One per-subframe observation row (the activity/deadline series). */
struct SubframeSample
{
    std::uint64_t subframe_index = 0;
    /** Serving cell (1 for single-cell engines). */
    std::uint32_t cell_id = 1;
    std::uint64_t t_arrival_ns = 0; ///< since tracer epoch
    std::uint64_t t_complete_ns = 0;
    std::uint32_t n_users = 0;
    std::uint32_t active_workers = 0;
    /** Estimator output for this subframe; negative if no estimator. */
    double est_activity = -1.0;
    /** Analytical flops of the subframe (op-model activity measure). */
    std::uint64_t ops = 0;

    double latency_ms() const
    {
        return static_cast<double>(t_complete_ns - t_arrival_ns) / 1e6;
    }
};

/**
 * Fixed-capacity per-subframe series.  Preallocated at construction;
 * samples past capacity are counted as dropped, never reallocated.
 */
class SubframeSeries
{
  public:
    explicit SubframeSeries(std::size_t capacity);

    void push(const SubframeSample &sample);
    void clear();

    std::size_t size() const { return size_; }
    std::uint64_t dropped() const { return dropped_; }
    const SubframeSample &at(std::size_t i) const { return samples_[i]; }

  private:
    std::vector<SubframeSample> samples_;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace lte::obs

#endif // LTE_OBS_TRACE_HPP
