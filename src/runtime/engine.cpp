/**
 * @file
 * The engine's one dispatch core (see engine.hpp for the design).
 */
#include "runtime/engine.hpp"

#include <algorithm>
#include <deque>
#include <thread>

#include "common/check.hpp"
#include "io/sample_plane.hpp"
#include "phy/kernel_scratch.hpp"
#include "phy/op_model.hpp"
#include "runtime/feedback.hpp"

namespace lte::runtime {

namespace {

/**
 * ShedPolicy::kDegrade with a real-turbo receiver: fraction of the
 * deadline past which a queued subframe is degraded all the way to
 * the decode bypass instead of the reduced iteration budget (the
 * ladder's first step fires at half).
 */
constexpr double kDegradeBypassFraction = 0.75;

const MultiCellConfig &
validated(const MultiCellConfig &config)
{
    config.validate();
    return config;
}

/**
 * True once the job's last user finished its tail reduce.  acquire
 * pairs with the release decrement in WorkerPool::execute_task, so a
 * true return also publishes every worker's writes to the results.
 */
bool
job_done(const SubframeJob &job)
{
    return job.users_remaining.load(std::memory_order_acquire) <= 0;
}

/** Copy a completed job's scalar outcome (capacity reuse). */
void
collect(const SubframeJob &job, SubframeOutcome &outcome)
{
    outcome.subframe_index = job.params.subframe_index;
    outcome.cell_id = job.params.cell_id;
    outcome.users.assign(job.results.begin(),
                         job.results.begin() +
                             static_cast<std::ptrdiff_t>(job.n_users));
}

/**
 * Grow-only pool of SubframeJobs.  acquire() returns a warm job (its
 * UserWork pool, result array and workspace arenas keep their
 * high-water-mark capacity from earlier subframes) and only allocates
 * while the pool is still below the lane's peak concurrency, after
 * which the steady state recycles without touching the heap.
 */
class JobPool
{
  public:
    SubframeJob *
    acquire()
    {
        if (free_.empty()) {
            jobs_.push_back(std::make_unique<SubframeJob>());
            return jobs_.back().get();
        }
        SubframeJob *job = free_.back();
        free_.pop_back();
        return job;
    }

    /** Return a job (completed or shed) for reuse. */
    void release(SubframeJob *job) { free_.push_back(job); }

  private:
    std::vector<std::unique_ptr<SubframeJob>> jobs_;
    std::vector<SubframeJob *> free_;
};

} // namespace

const char *
engine_kind_name(EngineKind kind)
{
    switch (kind) {
      case EngineKind::kSerial:
        return "serial";
      case EngineKind::kStreaming:
        return "streaming";
    }
    return "unknown";
}

const char *
shed_policy_name(ShedPolicy policy)
{
    switch (policy) {
      case ShedPolicy::kDropNewest:
        return "drop-newest";
      case ShedPolicy::kDropOldest:
        return "drop-oldest";
      case ShedPolicy::kDegrade:
        return "degrade";
    }
    return "unknown";
}

void
EngineConfig::validate() const
{
    LTE_CHECK(max_in_flight >= 1, "need at least one subframe in flight");
    LTE_CHECK(delta_ms >= 0.0, "delta must be non-negative");
    LTE_CHECK(deadline_ms >= 0.0, "deadline must be non-negative");
    LTE_CHECK(admission_queue >= 1, "need at least one admission slot");
    LTE_CHECK(receiver.cell_id == input.cell_id,
              "receiver and input generator must serve the same cell");
    receiver.validate();
    input.validate();
    obs.validate();
    io.validate();
}

void
MultiCellConfig::validate() const
{
    LTE_CHECK(n_cells >= 1, "need at least one cell");
    LTE_CHECK(cell_ids.empty() || cell_ids.size() == n_cells,
              "cell_ids must be empty or name every cell");
    for (std::size_t c = 0; c < n_cells; ++c) {
        const std::uint32_t id = cell_id_of(c);
        LTE_CHECK(id >= 1 && id <= 511,
                  "cell id must be 1..511 (9 scrambler bits)");
        for (std::size_t d = 0; d < c; ++d)
            LTE_CHECK(cell_id_of(d) != id, "cell ids must be distinct");
    }
    engine.validate();
}

std::size_t
MultiCellRunRecord::completed_subframes() const
{
    std::size_t n = 0;
    for (const auto &cell : cells)
        n += cell.subframes.size();
    return n;
}

// ----------------------------------------------------------------- obs

EngineObs::EngineObs(const EngineConfig &config, std::size_t n_slots)
    : slot(n_slots - 1)
{
    if (config.obs.enabled) {
        // One ring per worker plus the dispatch thread, preallocated
        // before the pool starts so recording never allocates.
        tracer = std::make_unique<obs::Tracer>(n_slots, config.obs);
        series = std::make_unique<obs::SubframeSeries>(
            config.obs.series_capacity);
    }
}

std::uint64_t
EngineObs::now_ns() const
{
    if (tracer)
        return tracer->now_ns();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

void
EngineObs::instant(obs::SpanKind kind, std::uint64_t t_ns,
                   std::uint64_t arg) const
{
    if (tracer)
        tracer->record_instant(slot, kind, t_ns, arg);
}

// ---------------------------------------------------------------- lane

/** One cell's shard of the pipeline. */
struct Engine::Lane
{
    explicit Lane(const InputGeneratorConfig &input_config)
        : input(input_config)
    {
    }

    /** A span argument tagged with this lane's cell (cell 1 stays
     *  untagged). */
    std::uint64_t
    tag(std::uint64_t value) const
    {
        return obs::make_cell_arg(cell_id == 1 ? 0 : cell_id, value);
    }

    std::uint32_t cell_id = 1;
    /** Round-robin admissions left in the current round (0 or 1). */
    std::uint32_t credits = 0;
    phy::ReceiverConfig receiver;
    InputGenerator input;
    std::optional<mgmt::WorkloadEstimator> estimator;
    /** Most recent Eq. 4 estimate (-1 when no estimator). */
    double last_estimate = -1.0;

    /** At most admission_queue + max_in_flight + 1 jobs ever exist. */
    JobPool job_pool;
    /** Prepared subframes waiting for a shared in-flight slot. */
    std::deque<SubframeJob *> pending;
    /** This lane's admitted jobs, oldest first. */
    std::deque<SubframeJob *> executing;
    /** The inline frame, pulled on the dispatch thread.  Jobs never
     *  reference it: its signals point into the generator's pools. */
    io::IqFrame scratch;
    /** The sample-plane transport, live only in an offloaded run(). */
    io::SampleTransport *transport = nullptr;
    /** Producer-side loss/late deltas already folded into shed. */
    std::uint64_t io_lost_synced = 0;
    std::uint64_t io_late_synced = 0;

    ShedStats shed;
    /** Analytical flops of this run's completed subframes. */
    std::uint64_t ops = 0;
};

/** One offloaded run's sample plane.  The feed is declared last so
 *  it stops before what it reads is destroyed. */
struct Engine::SamplePlane
{
    std::deque<io::SampleTransport> transports;
    std::unique_ptr<io::MultiSampleFeed> feed;
};

// -------------------------------------------------------------- engine

Engine::Engine(const EngineConfig &config)
    : Engine(MultiCellConfig{config, 1, {config.receiver.cell_id}})
{
}

Engine::Engine(const MultiCellConfig &config)
    : config_(validated(config)),
      obs_(config_.engine, config_.engine.kind == EngineKind::kSerial
                               ? 1
                               : config_.engine.pool.n_workers + 1)
{
    if (config_.engine.kind == EngineKind::kSerial) {
        // The serial engine runs kernels on the dispatch thread.
        phy::warm_kernel_scratch();
    } else {
        config_.engine.pool.tracer = obs_.tracer.get();
        pool_ = std::make_unique<WorkerPool>(config_.engine.pool);
    }

    for (std::size_t c = 0; c < config_.n_cells; ++c) {
        const std::uint32_t id = config_.cell_id_of(c);
        InputGeneratorConfig input_cfg = config_.engine.input;
        input_cfg.cell_id = id;
        auto lane = std::make_unique<Lane>(input_cfg);
        lane->cell_id = id;
        lane->receiver = config_.engine.receiver;
        lane->receiver.cell_id = id;
        lanes_.push_back(std::move(lane));
    }
}

Engine::~Engine() = default;

Engine::Lane &
Engine::lane_at(std::size_t cell) const
{
    LTE_CHECK(cell < lanes_.size(), "cell index out of range");
    return *lanes_[cell];
}

std::uint32_t
Engine::cell_id(std::size_t cell) const
{
    return lane_at(cell).cell_id;
}

InputGenerator &
Engine::input(std::size_t cell)
{
    return lane_at(cell).input;
}

const ShedStats &
Engine::shed_stats(std::size_t cell) const
{
    return lane_at(cell).shed;
}

void
Engine::set_estimator(std::optional<mgmt::WorkloadEstimator> estimator)
{
    if (estimator.has_value())
        estimator->set_real_turbo(config_.engine.receiver.use_real_turbo);
    for (auto &lane : lanes_)
        lane->estimator = estimator;
    estimator_ = std::move(estimator);
}

double
Engine::estimate(Lane &lane, const phy::SubframeParams &params,
                 std::size_t backlog, phy::DegradeLevel level)
{
    // Backlog-aware Eq. 4: resident subframes still demand cores, so
    // the pool must not power down under a queue.  On a degrade flip
    // the same equation is re-evaluated under the shed level's
    // op-model cost ratio.
    lane.last_estimate =
        lane.estimator.has_value()
            ? lane.estimator->estimate_subframe(params, backlog, level)
            : -1.0;
    return lane.last_estimate;
}

void
Engine::update_active_workers()
{
    if (!pool_ || !estimator_.has_value() || !config_.engine.proactive)
        return;
    // The shared pool serves the sum of the lanes' demands (the
    // multi-cell Eq. 4): each lane's estimate, summed and clamped to
    // the chip.
    double total = 0.0;
    for (const auto &lane : lanes_)
        total += std::max(0.0, lane->last_estimate);
    total = std::min(1.0, total);
    pool_->set_active_workers(estimator_->active_cores(
        total, static_cast<std::uint32_t>(pool_->n_workers())));
}

// ----------------------------------------------------------- admission

void
Engine::consume_frame(Lane &lane, io::IqFrame *frame,
                      MultiCellRunRecord *record)
{
    const EngineConfig &e = config_.engine;
    const bool pulled = frame == &lane.scratch;

    ++lane.shed.submitted;
    if (!pulled && obs_.tracer) {
        // Ready-ring residence: produced at t_arrival, consumed now.
        // The deadline clock has been running since the producer
        // stamp, so this span is budget already spent.
        obs_.tracer->record(obs_.slot, obs::SpanKind::kIoFrame,
                            frame->t_arrival_ns, obs_.now_ns(),
                            lane.tag(frame->params.subframe_index));
    }

    // Make room in this lane's admission ring.
    if (lane.pending.size() >= e.admission_queue) {
        if (e.deadline_ms == 0.0) {
            // Lossless mode: hold the arrival and block until this lane
            // frees a slot (backpressure; offloaded, it reaches the
            // producer through free-ring exhaustion too).  The round-robin
            // drain keeps the other lanes moving meanwhile.
            while (lane.pending.size() >= e.admission_queue) {
                admit_rr();
                if (lane.pending.size() < e.admission_queue)
                    break;
                drain_one(record);
            }
        } else if (e.shed_policy == ShedPolicy::kDropOldest) {
            // The oldest queued subframe is the closest to its
            // deadline — sacrifice it for the arrival.
            SubframeJob *oldest = lane.pending.front();
            lane.pending.pop_front();
            --total_pending_;
            observe_shed(lane, oldest->params.subframe_index,
                         /*expired=*/false);
            release_job(lane, oldest);
        } else {
            // kDropNewest / kDegrade: keep the queued work.  For
            // kDegrade this is what lets jobs age toward the
            // half-deadline mark and take the cheap chain instead of
            // being refreshed out of the ring by new arrivals.
            observe_shed(lane, frame->params.subframe_index,
                         /*expired=*/false);
            if (!pulled)
                lane.transport->release(frame);
            return;
        }
    }

    const double estimate_now = estimate(
        lane, frame->params, lane.pending.size() + lane.executing.size());
    // A pulled frame gets its signals only now, so a shed arrival
    // never advances the generator's pool cursors; like a fed frame
    // stamped at publish, it arrives once its samples exist.
    if (pulled)
        lane.input.signals_for(frame->params, frame->signals);
    SubframeJob *job = lane.job_pool.acquire();
    // Zero-copy handoff: the job reads the signal pointers in place; a
    // fed frame recycles at release_job().
    job->prepare(frame->params, frame->signals, lane.receiver);
    job->t_arrival_ns = pulled ? obs_.now_ns() : frame->t_arrival_ns;
    job->est_activity = estimate_now;
    job->io_frame = pulled ? nullptr : frame;
    lane.pending.push_back(job);
    ++total_pending_;
}

void
Engine::expire_pending(Lane &lane)
{
    if (config_.engine.deadline_ms <= 0.0)
        return;
    while (!lane.pending.empty()) {
        SubframeJob *job = lane.pending.front();
        const double age_ms =
            static_cast<double>(obs_.now_ns() - job->t_arrival_ns) / 1e6;
        if (age_ms <= config_.engine.deadline_ms)
            break;
        // Expired in the queue: nothing useful left to compute.
        lane.pending.pop_front();
        --total_pending_;
        observe_shed(lane, job->params.subframe_index, /*expired=*/true);
        release_job(lane, job);
    }
}

void
Engine::admit_one(Lane &lane)
{
    const EngineConfig &e = config_.engine;
    SubframeJob *job = lane.pending.front();
    const std::uint64_t now = obs_.now_ns();
    const double age_ms =
        static_cast<double>(now - job->t_arrival_ns) / 1e6;
    if (e.shed_policy == ShedPolicy::kDegrade && e.deadline_ms > 0.0 &&
        age_ms > 0.5 * e.deadline_ms) {
        // Over half the budget gone waiting: trade EVM for latency
        // rather than risk a drop, up the ShedPolicy::kDegrade ladder.
        const bool bypass = !lane.receiver.use_real_turbo ||
                            age_ms > kDegradeBypassFraction * e.deadline_ms;
        const phy::DegradeLevel level =
            bypass ? phy::DegradeLevel::kBypass
                   : phy::DegradeLevel::kReducedIterations;
        job->set_degrade(level);
        ++lane.shed.degraded;
        if (lane.estimator.has_value()) {
            // The planned work just got cheaper; let Eq. 4/5 see the
            // shed level's cost before this job hits the pool.
            job->est_activity = estimate(
                lane, job->params,
                lane.pending.size() + lane.executing.size(), level);
            update_active_workers();
        }
    }
    lane.pending.pop_front();
    --total_pending_;
    job->t_dispatch_ns = now;
    job->admit_seq = admit_seq_++;
    obs_.instant(obs::SpanKind::kDispatch, now,
                 lane.tag(job->params.subframe_index));
    ++lane.shed.admitted;
    if (!pool_)
        run_serial(*job);
    else if (job->n_users > 0)
        pool_->submit(job);
    // A zero-user (or serially run) job is already complete
    // (users_remaining == 0); it still flows through executing so
    // reaping preserves arrival order.
    lane.executing.push_back(job);
    ++total_executing_;
}

void
Engine::admit_rr()
{
    while (true) {
        for (auto &lane : lanes_)
            expire_pending(*lane);
        if (total_executing_ >= config_.engine.max_in_flight ||
            total_pending_ == 0)
            break;
        bool admitted = false;
        for (std::size_t k = 0; k < lanes_.size(); ++k) {
            const std::size_t c = (rr_next_ + k) % lanes_.size();
            Lane &lane = *lanes_[c];
            if (lane.pending.empty() || lane.credits == 0)
                continue;
            admit_one(lane);
            --lane.credits;
            rr_next_ = (c + 1) % lanes_.size();
            admitted = true;
            break;
        }
        if (!admitted) {
            // Every backlogged lane spent its round's credit: start a
            // new round.
            for (auto &lane : lanes_)
                lane->credits = 1;
        }
    }
}

void
Engine::run_serial(SubframeJob &job)
{
    for (std::size_t u = 0; u < job.n_users; ++u) {
        const std::uint64_t t_user =
            obs_.tracer ? obs_.tracer->now_ns() : 0;
        const phy::UserResult &result = job.users[u]->proc.process_all();
        job.set_result(u, result);
        if (obs_.tracer) {
            obs_.tracer->record(obs_.slot, obs::SpanKind::kUser, t_user,
                                obs_.tracer->now_ns(), result.user_id);
        }
    }
}

// ---------------------------------------------------------- completion

void
Engine::reap_all(MultiCellRunRecord *record)
{
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
        Lane &lane = *lanes_[c];
        while (!lane.executing.empty() &&
               job_done(*lane.executing.front())) {
            SubframeJob *job = lane.executing.front();
            lane.executing.pop_front();
            --total_executing_;
            SubframeOutcome &outcome =
                record ? record->cells[c].subframes.emplace_back()
                       : outcome_;
            collect(*job, outcome);
            complete(lane, job, outcome);
        }
    }
}

void
Engine::drain_one(MultiCellRunRecord *record)
{
    LTE_ASSERT(total_executing_ > 0,
               "drain_one() needs an in-flight subframe");
    // The globally oldest admitted job: smallest admit_seq over the
    // lanes' executing fronts.  Waiting on it (instead of any one
    // lane's front) keeps one cell's long subframe from blocking the
    // reaping of every other cell.
    Lane *oldest = nullptr;
    for (auto &lane : lanes_) {
        if (lane->executing.empty())
            continue;
        if (oldest == nullptr ||
            lane->executing.front()->admit_seq <
                oldest->executing.front()->admit_seq)
            oldest = lane.get();
    }
    if (pool_)
        pool_->wait_job(*oldest->executing.front());
    reap_all(record);
}

void
Engine::complete(Lane &lane, SubframeJob *job,
                 const SubframeOutcome &outcome)
{
    const std::uint64_t t_complete = obs_.now_ns();
    ++lane.shed.completed;
    // The costs the pool accounts per task, degraded chains included.
    std::uint64_t ops = 0;
    for (std::size_t u = 0; u < job->n_users; ++u)
        ops += job->users[u]->costs.total();
    lane.ops += ops;
    if (obs_.tracer) {
        // The series is stamped from arrival, not pool dispatch: the
        // deadline clock starts at the TTI tick, so queue wait counts
        // in latency_ms().
        obs::SubframeSample sample;
        sample.subframe_index = job->params.subframe_index;
        sample.cell_id = lane.cell_id;
        sample.t_arrival_ns = job->t_arrival_ns;
        sample.t_complete_ns = t_complete;
        sample.n_users = static_cast<std::uint32_t>(job->n_users);
        sample.active_workers = static_cast<std::uint32_t>(
            pool_ ? pool_->active_workers() : 1);
        sample.est_activity = job->est_activity;
        sample.ops = ops;
        obs_.tracer->record(obs_.slot, obs::SpanKind::kSubframe,
                            job->t_dispatch_ns, t_complete,
                            lane.tag(job->params.subframe_index));
        obs_.series->push(sample);
    }
    if (config_.engine.feedback) {
        config_.engine.feedback->on_subframe_complete(
            outcome, job->degrade_level);
    }
    release_job(lane, job);
}

void
Engine::observe_shed(Lane &lane, std::uint64_t subframe_index,
                     bool expired)
{
    ++lane.shed.shed;
    ++(expired ? lane.shed.shed_expired : lane.shed.shed_queue_full);
    obs_.instant(obs::SpanKind::kShed, obs_.now_ns(),
                 lane.tag(subframe_index));
    if (config_.engine.feedback) {
        config_.engine.feedback->on_subframe_shed(lane.cell_id,
                                                  subframe_index);
    }
}

void
Engine::sync_io_stats(Lane &lane, const io::FeedStats &stats)
{
    // A lost tick is a subframe the lane never saw: the producer
    // dropped it at the source because the frame pool (the upstream
    // queue) was exhausted.  Fold each one into the shed accounting
    // exactly once so shed + completed == submitted still holds.
    const std::uint64_t lost = stats.lost.load(std::memory_order_acquire);
    while (lane.io_lost_synced < lost) {
        ++lane.io_lost_synced;
        ++lane.shed.submitted;
        ++lane.shed.shed;
        ++lane.shed.shed_queue_full;
        ++lane.shed.io_lost;
        obs_.instant(obs::SpanKind::kIoLost, obs_.now_ns(),
                     lane.tag(lane.io_lost_synced));
    }
    const std::uint64_t late = stats.late.load(std::memory_order_acquire);
    lane.shed.io_late += late - lane.io_late_synced;
    lane.io_late_synced = late;
}

void
Engine::release_job(Lane &lane, SubframeJob *job)
{
    if (job->io_frame != nullptr) {
        // Always on the dispatch thread (reap, drop, expiry), so each
        // lane's free ring keeps its single producer.
        LTE_ASSERT(lane.transport != nullptr,
                   "sample-plane job released outside run()");
        lane.transport->release(job->io_frame);
        job->io_frame = nullptr;
    }
    lane.job_pool.release(job);
}

// ---------------------------------------------------------- entry points

const SubframeOutcome &
Engine::process_subframe(std::size_t cell,
                         const phy::SubframeParams &params)
{
    Lane &lane = lane_at(cell);
    params.validate();
    LTE_CHECK(params.cell_id == lane.cell_id,
              "params.cell_id must name the lane's cell");
    LTE_ASSERT(total_pending_ == 0 && total_executing_ == 0,
               "process_subframe() may not interleave with run()");
    // One arrival through the run() admission path, completed into
    // outcome_ instead of a record (copies reuse capacity).
    outcome_.subframe_index = params.subframe_index;
    outcome_.cell_id = lane.cell_id;
    outcome_.users.clear(); // stays empty if the arrival is shed
    lane.scratch.params = params;
    consume_frame(lane, &lane.scratch, nullptr);
    update_active_workers();
    admit_rr();
    if (total_executing_ > 0)
        drain_one(nullptr);
    return outcome_;
}

void
Engine::open_sample_plane(SamplePlane &plane,
                          std::vector<GeneratorSampleSource> &generators)
{
    std::vector<io::FeedLane> feed_lanes;
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
        Lane &lane = *lanes_[c];
        lane.transport =
            &plane.transports.emplace_back(config_.engine.io.n_frames);
        feed_lanes.push_back({lane.transport, &generators[c]});
    }
    io::FeedConfig feed_config;
    feed_config.delta_ms = config_.engine.delta_ms;
    feed_config.lossless = config_.engine.deadline_ms == 0.0;
    feed_config.now_ns = [this] { return obs_.now_ns(); };
    plane.feed = std::make_unique<io::MultiSampleFeed>(
        std::move(feed_lanes), feed_config);
}

MultiCellRunRecord
Engine::run(const std::vector<workload::ParameterModel *> &models,
            std::size_t n_subframes)
{
    using clock = std::chrono::steady_clock;
    LTE_CHECK(models.size() == lanes_.size(),
              "need one parameter model per cell");
    for (const auto *model : models)
        LTE_CHECK(model != nullptr, "null parameter model");

    MultiCellRunRecord record;
    record.cells.resize(lanes_.size());
    record.shed.resize(lanes_.size());
    std::vector<GeneratorSampleSource> generators;
    generators.reserve(lanes_.size());
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
        Lane &lane = *lanes_[c];
        record.cells[c].cell_id = lane.cell_id;
        record.cells[c].subframes.reserve(n_subframes);
        lane.shed = ShedStats{};
        lane.credits = 1;
        lane.last_estimate = -1.0;
        lane.io_lost_synced = 0;
        lane.io_late_synced = 0;
        lane.ops = 0;
        generators.emplace_back(lane.input, *models[c], lane.cell_id);
    }
    admit_seq_ = 0;
    rr_next_ = 0;
    if (pool_)
        pool_->reset_activity();

    SamplePlane plane;
    if (config_.engine.io.enabled)
        open_sample_plane(plane, generators);
    io::MultiSampleFeed *feed = plane.feed.get();

    const auto run_start = clock::now();
    auto next_tick = run_start;
    const auto delta = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double, std::milli>(config_.engine.delta_ms));
    if (feed)
        feed->start(n_subframes);

    // Every (lane, tick) resolves as completed or shed exactly once
    // (a tick lost at the source counts as shed), so all lanes
    // summing to n_cells * n ticks drains everything.
    const auto resolved = [this] {
        std::uint64_t n = 0;
        for (const auto &lane : lanes_)
            n += lane->shed.completed + lane->shed.shed;
        return n;
    };
    const std::uint64_t target =
        static_cast<std::uint64_t>(n_subframes) * lanes_.size();
    std::size_t ticks_pulled = 0;

    while (resolved() < target) {
        // Inline, the dispatch thread is the TTI clock: every lane
        // receives one subframe per tick whether or not the pipeline
        // kept up (free-running when delta_ms == 0).
        const bool pull = !feed && ticks_pulled < n_subframes;
        if (pull && config_.engine.delta_ms > 0.0) {
            std::this_thread::sleep_until(next_tick);
            next_tick += delta;
        }
        reap_all(&record);

        bool arrived = false;
        for (std::size_t c = 0; c < lanes_.size(); ++c) {
            Lane &lane = *lanes_[c];
            io::IqFrame *frame = nullptr;
            if (pull) {
                generators[c].draw(lane.scratch);
                frame = &lane.scratch;
            } else if (feed) {
                sync_io_stats(lane, feed->stats(c));
                frame = lane.transport->try_pop_ready();
            }
            if (frame != nullptr) {
                arrived = true;
                consume_frame(lane, frame, &record);
            }
        }
        ticks_pulled += pull ? 1 : 0;
        update_active_workers();
        admit_rr();

        if (!arrived) {
            // Offloaded, give the pool a breath; inline, every tick is
            // in: drain the tail (queued subframes can still expire).
            if (feed)
                std::this_thread::yield();
            else if (total_executing_ > 0)
                drain_one(&record);
        }
    }

    if (feed) {
        feed->stop();
        for (std::size_t c = 0; c < lanes_.size(); ++c)
            sync_io_stats(*lanes_[c], feed->stats(c));
    }
    LTE_ASSERT(total_pending_ == 0 && total_executing_ == 0,
               "ticks resolved but jobs remain in flight");

    record.wall_seconds =
        std::chrono::duration<double>(clock::now() - run_start).count();
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
        Lane &lane = *lanes_[c];
        lane.transport = nullptr;
        const ShedStats &s = lane.shed;
        LTE_ASSERT(s.shed + s.completed == s.submitted,
                   "admission accounting lost a subframe");
        LTE_ASSERT(s.submitted == n_subframes, "a lane lost track of a tick");
        record.shed[c] = s;
        record.cells[c].total_ops = lane.ops;
        record.cells[c].wall_seconds = record.wall_seconds;
        record.total_ops += lane.ops;
    }
    if (pool_) {
        const auto snap = pool_->activity();
        record.activity = snap.activity(pool_->n_workers());
        record.total_ops = snap.ops;
        record.steals = snap.steals;
    } else {
        record.activity = 1.0; // a serial run is busy by definition
    }
    return record;
}

RunRecord
Engine::run(workload::ParameterModel &model, std::size_t n_subframes)
{
    LTE_CHECK(lanes_.size() == 1, "a multi-cell run needs one model per cell");
    MultiCellRunRecord multi = run({&model}, n_subframes);
    RunRecord record = std::move(multi.cells.front());
    record.activity = multi.activity;
    record.total_ops = multi.total_ops;
    record.steals = multi.steals;
    return record;
}

} // namespace lte::runtime
