#include "runtime/worker_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "phy/kernel_scratch.hpp"
#include "phy/turbo.hpp"

namespace lte::runtime {

namespace {

/** Seed of the per-worker victim-selection streams. */
constexpr std::uint64_t kStealSeed = 1;

/** The span each node of phy::kUserTaskGraph records. */
constexpr obs::SpanKind kStageSpan[phy::kStageCount] = {
    obs::SpanKind::kChanEst, obs::SpanKind::kWeights,
    obs::SpanKind::kDemod,   obs::SpanKind::kTailCb,
    obs::SpanKind::kDecodeCb, obs::SpanKind::kTailReduce};

} // namespace

double
ActivitySnapshot::activity(std::size_t n_workers) const
{
    if (wall.count() <= 0 || n_workers == 0)
        return 0.0;
    return static_cast<double>(busy.count()) /
           (static_cast<double>(wall.count()) *
            static_cast<double>(n_workers));
}

ActivitySnapshot
ActivitySnapshot::operator-(const ActivitySnapshot &earlier) const
{
    ActivitySnapshot delta;
    delta.busy = busy - earlier.busy;
    delta.wall = wall - earlier.wall;
    delta.ops = ops - earlier.ops;
    delta.steals = steals - earlier.steals;
    return delta;
}

WorkerPool::WorkerPool(const WorkerPoolConfig &config)
    : config_(config), active_workers_(config.n_workers),
      epoch_(std::chrono::steady_clock::now())
{
    LTE_CHECK(config_.n_workers >= 1, "need at least one worker");

    deques_.reserve(config_.n_workers);
    stats_.reserve(config_.n_workers);
    for (std::size_t w = 0; w < config_.n_workers; ++w) {
        deques_.push_back(std::make_unique<WsDeque<Task>>());
        stats_.push_back(std::make_unique<WorkerStats>());
    }
    workers_.reserve(config_.n_workers);
    for (std::size_t w = 0; w < config_.n_workers; ++w)
        workers_.emplace_back([this, w] { worker_main(w); });
}

WorkerPool::~WorkerPool()
{
    stop_.store(true, std::memory_order_release);
    for (auto &t : workers_)
        t.join();
}

void
WorkerPool::submit(SubframeJob *job)
{
    LTE_CHECK(job != nullptr, "job must not be null");
    if (job->n_users == 0)
        return;
    job->users_remaining.store(
        static_cast<std::int32_t>(job->n_users),
        std::memory_order_relaxed);
    jobs_outstanding_.fetch_add(1, std::memory_order_acq_rel);
    for (std::size_t u = 0; u < job->n_users; ++u)
        global_queue_.push_bottom(job->users[u].get());
}

void
WorkerPool::wait_idle()
{
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] {
        return jobs_outstanding_.load(std::memory_order_acquire) == 0;
    });
}

void
WorkerPool::wait_job(const SubframeJob &job)
{
    // execute_task() notifies done_cv_ on every job completion (the
    // users_remaining 1 -> 0 transition), so waiting on one job is the
    // same condition variable with a per-job predicate.
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [&job] {
        return job.users_remaining.load(std::memory_order_acquire) <= 0;
    });
}

void
WorkerPool::set_active_workers(std::size_t n)
{
    active_workers_.store(
        std::clamp<std::size_t>(n, 1, workers_.size()),
        std::memory_order_release);
}

ActivitySnapshot
WorkerPool::activity_total() const
{
    ActivitySnapshot snap;
    for (const auto &s : stats_) {
        snap.busy += std::chrono::nanoseconds(
            s->busy_ns.load(std::memory_order_relaxed));
        snap.ops += s->ops.load(std::memory_order_relaxed);
        snap.steals += s->steals.load(std::memory_order_relaxed);
    }
    snap.wall = std::chrono::steady_clock::now() - epoch_;
    return snap;
}

ActivitySnapshot
WorkerPool::activity() const
{
    const ActivitySnapshot total = activity_total();
    std::lock_guard<std::mutex> lock(baseline_mutex_);
    return total - baseline_;
}

void
WorkerPool::reset_activity()
{
    const ActivitySnapshot total = activity_total();
    std::lock_guard<std::mutex> lock(baseline_mutex_);
    baseline_ = total;
}

std::uint64_t
WorkerPool::steals() const
{
    return activity().steals;
}

UserWork *
WorkerPool::try_pop_global()
{
    // steal_top() gives FIFO order: subframes are started oldest-first.
    const auto work = global_queue_.steal_top();
    return work ? *work : nullptr;
}

void
WorkerPool::account(std::size_t wid,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    std::uint64_t ops)
{
    stats_[wid]->busy_ns.fetch_add(
        static_cast<std::uint64_t>((end - start).count()),
        std::memory_order_relaxed);
    stats_[wid]->ops.fetch_add(ops, std::memory_order_relaxed);
}

void
WorkerPool::trace(std::size_t wid, obs::SpanKind kind,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end,
                  std::uint64_t arg)
{
    if (obs::Tracer *tracer = config_.tracer) {
        tracer->record(wid, kind, tracer->to_ns(start),
                       tracer->to_ns(end), arg);
    }
}

void
WorkerPool::execute_task(std::size_t wid, const Task &task)
{
    const auto start = std::chrono::steady_clock::now();
    UserWork *work = task.work;
    std::uint64_t arg = task.index;
    switch (task.stage) {
      case phy::TaskStage::kChanEst:
        work->proc.run_chanest_task(task.index);
        break;
      case phy::TaskStage::kWeights:
        work->proc.compute_weights();
        arg = work->proc.params().id;
        break;
      case phy::TaskStage::kDemod:
        work->proc.run_demod_task(task.index);
        break;
      case phy::TaskStage::kTailCb:
        work->proc.run_tail_task(task.index);
        break;
      case phy::TaskStage::kDecodeCb:
        work->proc.run_decode_task(task.index);
        break;
      case phy::TaskStage::kTailReduce: {
        // Only the scalar outcome leaves the worker; the decoded bits
        // stay in the processor's reused storage (no copy, no alloc).
        const phy::UserResult &result = work->proc.finish_reduce();
        work->parent->set_result(work->result_slot, result);
        arg = result.user_id;
        break;
      }
    }
    const auto end = std::chrono::steady_clock::now();
    const auto stage = static_cast<std::size_t>(task.stage);
    account(wid, start, end, phy::task_cost(work->costs, stage));
    trace(wid, kStageSpan[stage], start, end, arg);

    // Continuation dispatch: the worker that performs the final
    // acq_rel decrement of a node's counter observes every sibling's
    // writes and seeds the next node into its own deque (LIFO keeps
    // the user's data hot; thieves take it if this worker is busy).
    // No stage ever waits.
    if (work->remaining[stage].fetch_sub(
            1, std::memory_order_acq_rel) != 1)
        return;
    const std::size_t next = phy::next_stage(
        stage, [work](std::size_t s) { return phy::fan_out(work->costs, s); });
    if (next < phy::kStageCount) {
        seed(wid, work, next);
    } else if (work->parent->users_remaining.fetch_sub(
                   1, std::memory_order_acq_rel) == 1) {
        // Last user of the subframe: the job is complete.
        jobs_outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
    }
}

bool
WorkerPool::try_help(std::size_t wid)
{
    if (auto task = deques_[wid]->pop_bottom()) {
        execute_task(wid, *task);
        return true;
    }
    // Steal from a pseudo-random victim; one full scan per attempt.
    thread_local Rng rng(kStealSeed * 1000003 + wid);
    const std::size_t n = deques_.size();
    if (n <= 1)
        return false;
    const std::size_t start = static_cast<std::size_t>(rng.next_below(n));
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t victim = (start + i) % n;
        if (victim == wid)
            continue;
        if (auto task = deques_[victim]->steal_top()) {
            stats_[wid]->steals.fetch_add(1, std::memory_order_relaxed);
            if (obs::Tracer *tracer = config_.tracer) {
                tracer->record_instant(wid, obs::SpanKind::kSteal,
                                       tracer->now_ns(), victim);
            }
            execute_task(wid, *task);
            return true;
        }
    }
    return false;
}

void
WorkerPool::seed(std::size_t wid, UserWork *work, std::size_t stage)
{
    auto &deque = *deques_[wid];
    const auto kind = static_cast<phy::TaskStage>(stage);
    const std::uint32_t n = phy::fan_out(work->costs, stage);
    for (std::uint32_t t = 0; t < n; ++t)
        deque.push_bottom(Task{work, kind, t});
}

void
WorkerPool::worker_main(std::size_t wid)
{
    // Create this thread's fixed kernel scratch and the turbo decode
    // workspace up front so no task ever allocates either lazily on
    // the subframe hot path.
    phy::warm_kernel_scratch();
    phy::warm_turbo_scratch();

    while (!stop_.load(std::memory_order_acquire)) {
        // NAP emulation: a deactivated worker parks and periodically
        // wakes to re-check its status (there is no way to remotely
        // reactivate a napping TILEPro64 core, Sec. V-B).
        if (wid >= active_workers_.load(std::memory_order_acquire)) {
            const auto start = std::chrono::steady_clock::now();
            std::this_thread::sleep_for(config_.nap_poll_period);
            trace(wid, obs::SpanKind::kNap, start,
                  std::chrono::steady_clock::now(), 0);
            continue;
        }

        // Paper order: the global user queue is checked before
        // stealing so a fresh subframe is picked up promptly.
        // A new user seeds its first node (one task per (antenna,
        // layer)); the continuations drive everything else.
        if (UserWork *work = try_pop_global()) {
            seed(wid, work, 0);
            continue;
        }
        if (try_help(wid))
            continue;

        // No work found: nap for a poll period (IDLE) or spin.
        if (config_.reactive_idle) {
            const auto start = std::chrono::steady_clock::now();
            std::this_thread::sleep_for(config_.idle_poll_period);
            trace(wid, obs::SpanKind::kIdle, start,
                  std::chrono::steady_clock::now(), 0);
        } else {
            std::this_thread::yield(); // spin (burns activity)
        }
    }
}

} // namespace lte::runtime
