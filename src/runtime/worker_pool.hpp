/**
 * @file
 * The Pthreads-style work-stealing worker pool of the paper's default
 * benchmark version (Sec. IV-C), built on std::thread.
 *
 * Each worker owns a task deque.  The scheduling loop follows the
 * paper exactly: check the global user queue first (a new subframe
 * beats stealing), then the local deque, then steal from a random
 * victim.  A worker that dequeues a user seeds its channel-estimation
 * fan-out and moves on; every later stage is continuation-driven —
 * the worker that performs the final decrement of a stage counter
 * enqueues the next node (weight join, demod fan-out, per-codeblock
 * tail fan-out, CRC/EVM reduce), so no worker ever blocks inside a
 * user and a heavy user's tail spreads across the whole pool.
 *
 * Core-deactivation strategies are emulated functionally: NAP-style
 * deactivation parks workers above the active-core watermark (they
 * wake periodically to re-check, mirroring the TILEPro64 `nap`
 * semantics); IDLE-style reactive gating makes a workless worker
 * sleep for a poll period instead of spinning.
 */
#ifndef LTE_RUNTIME_WORKER_POOL_HPP
#define LTE_RUNTIME_WORKER_POOL_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mgmt/strategy.hpp"
#include "obs/trace.hpp"
#include "runtime/task.hpp"
#include "runtime/ws_deque.hpp"

namespace lte::runtime {

/** Pool configuration. */
struct WorkerPoolConfig
{
    std::size_t n_workers = 4;
    mgmt::Strategy strategy = mgmt::Strategy::kNoNap;
    /** Reactive (IDLE) sleep when no work is found. */
    std::chrono::microseconds idle_poll_period{200};
    /** Periodic wake-up of a NAP-deactivated worker. */
    std::chrono::microseconds nap_poll_period{500};
    std::uint64_t steal_seed = 1;
    /**
     * Optional span tracer (not owned; must outlive the pool).  Worker
     * w records into tracer slot w, so the tracer needs at least
     * n_workers slots.  Null disables tracing at the cost of one
     * branch per recording site.
     */
    obs::Tracer *tracer = nullptr;
};

/**
 * Aggregate activity accounting (the paper's Eq. 1/2 counters).
 *
 * Snapshots are cumulative-since-construction; an *interval* is the
 * difference of two snapshots (operator-).  Interval arithmetic is the
 * only correct way to measure a burst: resetting the underlying
 * counters while workers run would lose in-flight accumulation and
 * race on the epoch.
 */
struct ActivitySnapshot
{
    /** Sum over workers of time spent executing useful work. */
    std::chrono::nanoseconds busy{0};
    /** Wall-clock duration of the measurement interval. */
    std::chrono::nanoseconds wall{0};
    /** Analytical flops executed (deterministic activity measure). */
    std::uint64_t ops = 0;
    /** Tasks stolen from another worker's deque. */
    std::uint64_t steals = 0;

    /** busy / (wall * n_workers), the paper's "activity". */
    double activity(std::size_t n_workers) const;

    /** Interval between two cumulative snapshots (*this - earlier). */
    ActivitySnapshot operator-(const ActivitySnapshot &earlier) const;
};

class WorkerPool
{
  public:
    explicit WorkerPool(const WorkerPoolConfig &config);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue the first job->n_users user work states on the global
     * user queue.  The job must outlive its processing; completion is
     * observable via wait_idle() or job->users_remaining.  Steady-state
     * submission is allocation-free (the queue is a preallocated ring).
     */
    void submit(SubframeJob *job);

    /** Block until every submitted job has completed. */
    void wait_idle();

    /** Block until @p job (previously submit()ted) has completed;
     *  unlike wait_idle(), other subframes may still be in flight. */
    void wait_job(const SubframeJob &job);

    /**
     * NAP control: workers with index >= n park themselves (after
     * finishing their current work item).  Clamped to [1, n_workers].
     */
    void set_active_workers(std::size_t n);

    std::size_t active_workers() const { return active_workers_.load(); }
    std::size_t n_workers() const { return workers_.size(); }

    /**
     * Cumulative activity since pool construction (wall measured from
     * the immutable construction epoch).  Subtract two of these for an
     * interval measurement.
     */
    ActivitySnapshot activity_total() const;

    /** Activity accounting since construction or the last reset
     *  (activity_total() minus the reset baseline). */
    ActivitySnapshot activity() const;

    /**
     * Start a new measurement interval.  Implemented as a baseline
     * snapshot, not a counter wipe: worker counters are monotone, so a
     * reset can neither lose in-flight accumulation nor race with
     * activity() readers on a mutable epoch.
     */
    void reset_activity();

    /** Tasks stolen from another worker's deque since construction or
     *  the last reset (diagnostics). */
    std::uint64_t steals() const;

  private:
    struct alignas(64) WorkerStats
    {
        std::atomic<std::uint64_t> busy_ns{0};
        std::atomic<std::uint64_t> ops{0};
        std::atomic<std::uint64_t> steals{0};
    };

    void worker_main(std::size_t wid);
    UserWork *try_pop_global();
    bool try_help(std::size_t wid);
    /** Seed a user's chanest fan-out into @p wid's deque (no join —
     *  the continuation graph takes over from there). */
    void start_user(std::size_t wid, UserWork *work);
    void execute_task(std::size_t wid, const Task &task);
    /** The kTailReduce node: fold the user, publish its outcome and
     *  signal job completion on the last user. */
    void finish_user(std::size_t wid, UserWork *work);
    void account(std::size_t wid,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end,
                 std::uint64_t ops);
    /** Record a span on worker @p wid if tracing is on (one branch). */
    void trace(std::size_t wid, obs::SpanKind kind,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               std::uint64_t arg);

    WorkerPoolConfig config_;

    std::vector<std::unique_ptr<WsDeque<Task>>> deques_;
    std::vector<std::unique_ptr<WorkerStats>> stats_;
    std::vector<std::thread> workers_;

    /** Global user queue (FIFO via steal_top); preallocated ring. */
    WsDeque<UserWork *> global_queue_;

    std::mutex done_mutex_;
    std::condition_variable done_cv_;
    std::atomic<std::int64_t> jobs_outstanding_{0};

    std::atomic<std::size_t> active_workers_;
    std::atomic<bool> stop_{false};
    /** Construction epoch; immutable so activity_total() is race-free. */
    const std::chrono::steady_clock::time_point epoch_;

    /** Baseline snapshot set by reset_activity(). */
    mutable std::mutex baseline_mutex_;
    ActivitySnapshot baseline_;
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_WORKER_POOL_HPP
