#include "runtime/worker_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "phy/kernel_scratch.hpp"
#include "phy/turbo.hpp"

namespace lte::runtime {

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
    // finish_user() notifies done_cv_ on every job completion (the
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
    // Continuation dispatch: the worker that performs the final
    // acq_rel decrement of a stage counter observes every sibling's
    // writes and enqueues the next graph node into its own deque
    // (LIFO keeps the user's data hot; thieves take it if this worker
    // is busy).  No stage ever waits.
    const auto start = std::chrono::steady_clock::now();
    UserWork *work = task.work;
    auto &deque = *deques_[wid];
    switch (task.kind) {
      case Task::Kind::kChanEst: {
        work->proc.run_chanest_task(task.index);
        const auto end = std::chrono::steady_clock::now();
        account(wid, start, end, work->costs.chanest_task);
        trace(wid, obs::SpanKind::kChanEst, start, end, task.index);
        if (work->chanest_remaining.fetch_sub(
                1, std::memory_order_acq_rel) == 1)
            deque.push_bottom(Task{work, Task::Kind::kWeights, 0});
        break;
      }
      case Task::Kind::kWeights: {
        work->proc.compute_weights();
        const auto end = std::chrono::steady_clock::now();
        account(wid, start, end, work->costs.weights);
        trace(wid, obs::SpanKind::kWeights, start, end,
              work->proc.params().id);
        const auto n_demod = work->proc.n_demod_tasks();
        for (std::size_t t = 0; t < n_demod; ++t) {
            deque.push_bottom(Task{work, Task::Kind::kDemod,
                                   static_cast<std::uint32_t>(t)});
        }
        break;
      }
      case Task::Kind::kDemod: {
        work->proc.run_demod_task(task.index);
        const auto end = std::chrono::steady_clock::now();
        account(wid, start, end, work->costs.demod_task);
        trace(wid, obs::SpanKind::kDemod, start, end, task.index);
        if (work->demod_remaining.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            const auto n_tail = work->proc.n_tail_tasks();
            for (std::size_t t = 0; t < n_tail; ++t) {
                deque.push_bottom(Task{work, Task::Kind::kTailCb,
                                       static_cast<std::uint32_t>(t)});
            }
        }
        break;
      }
      case Task::Kind::kTailCb: {
        work->proc.run_tail_task(task.index);
        const auto end = std::chrono::steady_clock::now();
        account(wid, start, end, work->costs.tail_task);
        trace(wid, obs::SpanKind::kTailCb, start, end, task.index);
        if (work->tail_remaining.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            // Real-turbo mode interposes the decode fan-out between
            // the tail and the reduce; otherwise close the user.
            const auto n_decode = work->proc.n_decode_tasks();
            if (n_decode == 0) {
                deque.push_bottom(
                    Task{work, Task::Kind::kTailReduce, 0});
            } else {
                for (std::size_t t = 0; t < n_decode; ++t) {
                    deque.push_bottom(
                        Task{work, Task::Kind::kDecodeCb,
                             static_cast<std::uint32_t>(t)});
                }
            }
        }
        break;
      }
      case Task::Kind::kDecodeCb: {
        work->proc.run_decode_task(task.index);
        const auto end = std::chrono::steady_clock::now();
        account(wid, start, end, work->costs.decode_task);
        trace(wid, obs::SpanKind::kDecodeCb, start, end, task.index);
        if (work->decode_remaining.fetch_sub(
                1, std::memory_order_acq_rel) == 1)
            deque.push_bottom(Task{work, Task::Kind::kTailReduce, 0});
        break;
      }
      case Task::Kind::kTailReduce:
        finish_user(wid, work);
        break;
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
    thread_local Rng rng(config_.steal_seed * 1000003 + wid);
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
WorkerPool::start_user(std::size_t wid, UserWork *work)
{
    // Seed stage 1 (one task per (antenna, layer)) and return to the
    // scheduling loop; the continuation graph drives everything else.
    auto &deque = *deques_[wid];
    const auto n_chanest = work->proc.n_chanest_tasks();
    for (std::size_t t = 0; t < n_chanest; ++t) {
        deque.push_bottom(
            Task{work, Task::Kind::kChanEst,
                 static_cast<std::uint32_t>(t)});
    }
}

void
WorkerPool::finish_user(std::size_t wid, UserWork *work)
{
    const auto start = std::chrono::steady_clock::now();
    // Only the scalar outcome leaves the worker; the decoded bits stay
    // in the processor's reused storage (no payload copy, no alloc).
    const phy::UserResult &result = work->proc.finish_reduce();
    work->parent->set_result(work->result_slot, result);
    const auto end = std::chrono::steady_clock::now();
    account(wid, start, end, work->costs.tail_reduce);
    trace(wid, obs::SpanKind::kTailReduce, start, end, result.user_id);

    if (work->parent->users_remaining.fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
        // Last user of the subframe: the job is complete.
        jobs_outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
    }
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
        if (UserWork *work = try_pop_global()) {
            start_user(wid, work);
            continue;
        }
        if (try_help(wid))
            continue;

        // No work found: behaviour depends on the strategy.
        switch (config_.strategy) {
          case mgmt::Strategy::kNoNap:
          case mgmt::Strategy::kNap:
            std::this_thread::yield(); // spin (burns activity)
            break;
          case mgmt::Strategy::kIdle:
          case mgmt::Strategy::kNapIdle:
          case mgmt::Strategy::kPowerGating: {
            const auto start = std::chrono::steady_clock::now();
            std::this_thread::sleep_for(config_.idle_poll_period);
            trace(wid, obs::SpanKind::kIdle, start,
                  std::chrono::steady_clock::now(), 0);
            break;
          }
        }
    }
}

} // namespace lte::runtime
