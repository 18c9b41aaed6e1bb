/**
 * @file
 * The subframe-processing engine: the paper's one dispatcher (the
 * Sec. IV-B "maintenance thread" feeding the Sec. IV-C work-stealing
 * pool) and the Sec. IV-A serial reference it is validated against.
 *
 *  - Lanes.  Every cell owns a lane: receiver config (cell-specific
 *    scrambler and DMRS roots), InputGenerator (seeded via
 *    cell_stream_seed), an admission ring of pooled SubframeJobs, an
 *    in-order executing list and a backlog-aware Eq. 4 estimate.  The
 *    default is one lane serving config.receiver.cell_id.
 *  - Input.  Every TTI tick each lane gets one io::IqFrame: pulled on
 *    the dispatch thread from a GeneratorSampleSource (inline), or
 *    delivered by a MultiSampleFeed producer thread (io.enabled).
 *    Both go through one admission path.
 *  - Admission.  A full ring sheds by ShedPolicy, a queued subframe
 *    past deadline_ms expires, and under kDegrade one past half its
 *    budget takes the cheaper chain.  deadline_ms == 0 is lossless: a
 *    full ring blocks the arrival instead (backpressure).  Lanes drain
 *    into the shared in-flight window by round-robin (each backlogged
 *    lane gets one admission per round).
 *  - Execution.  kStreaming submits jobs to the WorkerPool and reaps
 *    each individually (wait_job on the globally oldest admission, no
 *    barrier).  kSerial owns no pool: the dispatch thread runs each
 *    job's users through UserProcessor::process_all, keeping the
 *    reference a separate code path from the task graph.
 *
 * Per run and lane: shed + completed == submitted == n_subframes, and
 * records are in arrival order.  A lossless run is bit-identical to
 * the serial reference, and a lane's digest matches a one-lane run of
 * the same (seed, cell id).  process_subframe() performs zero heap
 * allocations in steady state (tests/test_alloc_free.cpp).
 */
#ifndef LTE_RUNTIME_ENGINE_HPP
#define LTE_RUNTIME_ENGINE_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "io/io_config.hpp"
#include "io/sample_plane.hpp"
#include "mgmt/estimator.hpp"
#include "obs/trace.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"
#include "runtime/input_generator.hpp"
#include "runtime/run_record.hpp"
#include "runtime/task.hpp"
#include "runtime/worker_pool.hpp"
#include "workload/parameter_model.hpp"

namespace lte::runtime {

class SubframeFeedbackSink;

/** How admitted jobs execute. */
enum class EngineKind : std::uint8_t
{
    kSerial,    ///< no pool: users in order on the dispatch thread
    kStreaming, ///< the work-stealing pool (the default)
};

/** Human-readable engine name ("serial" / "streaming"). */
const char *engine_kind_name(EngineKind kind);

/**
 * What the admission controller does when it must shed load
 * (admission ring full, or a queued subframe has aged past the
 * deadline).  Expired subframes are always dropped — by the time the
 * deadline has passed there is nothing useful left to compute — so the
 * policy chooses the reaction to a *full ring*.
 */
enum class ShedPolicy : std::uint8_t
{
    /** Drop the arriving subframe; queued ones keep their place. */
    kDropNewest,
    /** Drop the oldest queued subframe to admit the arrival (the
     *  queued one is the likeliest to miss its deadline anyway). */
    kDropOldest,
    /** Like kDropNewest, but additionally process subframes that have
     *  consumed over half their deadline budget with a degraded
     *  receive chain to shorten the queue instead of dropping further
     *  subframes.  Real-turbo receivers climb a ladder: MRC combining
     *  plus a reduced decode iteration budget first, and the full
     *  decode bypass only past three quarters of the deadline;
     *  pass-through receivers go straight to the bypass
     *  (the two levels coincide in output there). */
    kDegrade,
};

/** Human-readable policy name ("drop-newest" / "drop-oldest" /
 *  "degrade"). */
const char *shed_policy_name(ShedPolicy policy);

/**
 * Admission tallies of one lane over one run, the only copy of these
 * counts.  The per-run invariant is shed + completed == submitted.
 */
struct ShedStats
{
    std::uint64_t submitted = 0; ///< arrivals offered by the model
    std::uint64_t admitted = 0;  ///< entered the in-flight window
    std::uint64_t completed = 0; ///< finished processing
    std::uint64_t shed = 0;      ///< dropped (queue-full + expired)
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_expired = 0;
    std::uint64_t degraded = 0;  ///< admitted on the degraded chain
    /** Sample plane only: ticks whose frame was dropped at the source
     *  because the buffer pool was exhausted.  Counted inside shed
     *  (and shed_queue_full — the pool is the upstream queue), so the
     *  shed + completed == submitted invariant is unchanged. */
    std::uint64_t io_lost = 0;
    /** Sample plane only: frames delivered more than one TTI after
     *  their scheduled tick (still processed; informational). */
    std::uint64_t io_late = 0;
};

/** Engine configuration (one lane; see MultiCellConfig for N). */
struct EngineConfig
{
    EngineKind kind = EngineKind::kStreaming;
    /** Worker-pool shape; ignored by the serial engine. */
    WorkerPoolConfig pool;
    phy::ReceiverConfig receiver;
    InputGeneratorConfig input;
    /** Maximum subframes concurrently in flight across all lanes
     *  (paper: two to three). */
    std::size_t max_in_flight = 3;
    /** TTI (arrival) period in milliseconds; 0 = free-running. */
    double delta_ms = 0.0;
    /** Paper NAP: with an estimator installed, park pool workers above
     *  the Eq. 5 watermark each dispatch (mgmt::PowerPolicy's
     *  proactive).  Without it estimates are still computed and
     *  published, but every worker stays active. */
    bool proactive = false;
    /**
     * Arrival-to-completion deadline in milliseconds.  0 means
     * infinite — the engine never sheds and applies backpressure
     * (blocks the arrival source) when a ring is full, which is the
     * lossless mode used for digest validation.
     */
    double deadline_ms = 0.0;
    /** Capacity of each lane's admission ring (prepared subframes
     *  waiting for an in-flight slot). */
    std::size_t admission_queue = 8;
    /** Reaction to overload. */
    ShedPolicy shed_policy = ShedPolicy::kDropNewest;
    /**
     * Observability: when obs.enabled the engine owns a span tracer
     * (one ring per worker plus the dispatch thread) and a
     * per-subframe activity/deadline series, both preallocated so
     * steady-state recording stays allocation-free.  Disabled, every
     * recording site costs a single branch; the admission tallies
     * (ShedStats) and the RunRecord count either way.
     */
    obs::ObsConfig obs;

    /**
     * Sample plane: when io.enabled, run() consumes ready IQ frames
     * from a producer thread instead of pulling input on the dispatch
     * thread.  deadline_ms == 0 pairs with the feed's lossless mode, so
     * offloaded generator runs stay bit-identical to inline ones.
     */
    io::IoConfig io;

    /**
     * Closed-loop feedback (MAC layer): when non-null, the engine
     * reports each completed subframe's outcome and every shed
     * decision to this sink from its dispatch thread (see
     * runtime/feedback.hpp).  The sink is borrowed, not owned, and
     * must outlive the engine's run()/process_subframe() calls.
     */
    SubframeFeedbackSink *feedback = nullptr;

    void validate() const;
};

/** Configuration of an N-lane engine. */
struct MultiCellConfig
{
    /**
     * Lane template: pool shape (shared), receiver, input generator,
     * admission knobs (admission_queue per lane, max_in_flight for the
     * *shared* window) and observability.  The template's
     * receiver/input cell_id fields are overridden per lane.
     */
    EngineConfig engine;

    /** Number of cells sharing the pool. */
    std::size_t n_cells = 1;

    /**
     * Physical cell identities (1..511, distinct).  Empty = 1..n_cells,
     * so a default 1-cell engine serves cell 1 and reproduces the
     * single-cell pipeline bit-for-bit.
     */
    std::vector<std::uint32_t> cell_ids;

    void validate() const;

    /** The cell id serving lane @p cell (applies the 1..n default). */
    std::uint32_t
    cell_id_of(std::size_t cell) const
    {
        return cell_ids.empty() ? static_cast<std::uint32_t>(cell + 1)
                                : cell_ids[cell];
    }
};

/** Everything a run produces. */
struct MultiCellRunRecord
{
    /**
     * One record per cell, subframes in that cell's arrival order.
     * Each per-cell record carries its cell_id, per-cell total_ops
     * and the shared wall clock; pool-level aggregates (activity,
     * steals) live on the aggregate fields below.
     */
    std::vector<RunRecord> cells;

    /** Per-cell admission accounting (index-aligned with cells). */
    std::vector<ShedStats> shed;

    double wall_seconds = 0.0;
    double activity = 0.0;       ///< Eq. 2 over the shared pool
    std::uint64_t total_ops = 0; ///< analytical flops, all cells
    std::uint64_t steals = 0;

    /** Subframes completed across all cells. */
    std::size_t completed_subframes() const;
};

/** The engine's observability state (see EngineConfig::obs) and the
 *  clock of every admission timestamp. */
struct EngineObs
{
    EngineObs(const EngineConfig &config, std::size_t n_slots);

    /** Monotonic ns: tracer epoch when tracing, engine epoch when
     *  tracing is off (admission must not depend on the tracer). */
    std::uint64_t now_ns() const;

    /** Record an instant on the dispatch slot (no-op untraced). */
    void instant(obs::SpanKind kind, std::uint64_t t_ns,
                 std::uint64_t arg) const;

    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::SubframeSeries> series;
    /** The dispatch thread's tracer slot (after the workers'). */
    std::size_t slot = 0;

    const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

/**
 * A lane's InputGenerator + parameter model as an io::SampleSource:
 * produce() on a feed's producer thread, or draw() on the dispatch
 * thread with signals filled only for admitted arrivals.  Both consume
 * the model and generator in the same order, so offloaded lossless
 * runs reproduce the inline digests bit for bit.  Signal pointers
 * reference the generator's pools (a zero-copy handoff).
 */
class GeneratorSampleSource : public io::SampleSource
{
  public:
    /** @p cell_id, the lane's cell, is stamped over the model's
     *  params.cell_id.  Both references must outlive the source. */
    GeneratorSampleSource(InputGenerator &input,
                          workload::ParameterModel &model,
                          std::uint32_t cell_id)
        : input_(input), model_(model), cell_id_(cell_id)
    {
    }

    /** The next subframe's parameters only (signals left as-is). */
    void
    draw(io::IqFrame &frame)
    {
        frame.params = model_.next_subframe();
        frame.params.cell_id = cell_id_;
        frame.params.validate();
    }

    void
    produce(io::IqFrame &frame) override
    {
        draw(frame);
        input_.signals_for(frame.params, frame.signals);
    }

    void
    skip() override
    {
        // A lost tick still consumes its model draw, so delivered
        // frames keep the same stream positions the inline path
        // would have given them.
        (void)model_.next_subframe();
    }

  private:
    InputGenerator &input_;
    workload::ParameterModel &model_;
    std::uint32_t cell_id_;
};

/** The engine (see the file comment). */
class Engine
{
  public:
    /** One lane serving config.receiver.cell_id. */
    explicit Engine(const EngineConfig &config);
    /** config.n_cells lanes sharing one pool. */
    explicit Engine(const MultiCellConfig &config);
    ~Engine();

    const char *name() const
    {
        return engine_kind_name(config_.engine.kind);
    }

    /** The given lane's physical cell identity. */
    std::uint32_t cell_id(std::size_t cell = 0) const;
    /** The given lane's input generator (pool warm-up, tests). */
    InputGenerator &input(std::size_t cell = 0);
    /** Admission tallies of the last run() for one lane. */
    const ShedStats &shed_stats(std::size_t cell = 0) const;

    /** The worker pool, or nullptr for the serial engine. */
    WorkerPool *worker_pool() { return pool_.get(); }

    /**
     * Give every lane a backlog-aware Eq. 4 estimator (one copy per
     * lane) plus an engine-level copy that turns the *summed* lane
     * estimates into the pool's active-core count (Eq. 5) under the
     * NAP / NAP+IDLE / power-gating strategies.
     */
    void set_estimator(std::optional<mgmt::WorkloadEstimator> estimator);

    /** Span tracer, or nullptr when observability is disabled. */
    obs::Tracer *tracer() { return obs_.tracer.get(); }
    /** Cell-tagged per-subframe series, or nullptr when disabled. */
    const obs::SubframeSeries *subframe_series() const
    {
        return obs_.series.get();
    }

    /**
     * Process one subframe of one lane synchronously (the engine must
     * be otherwise idle).  params.cell_id must name the lane's cell.
     * Allocation-free in steady state; the returned reference stays
     * valid until the next call.
     */
    const SubframeOutcome &
    process_subframe(std::size_t cell, const phy::SubframeParams &params);
    const SubframeOutcome &
    process_subframe(const phy::SubframeParams &params)
    {
        return process_subframe(0, params);
    }

    /**
     * Run @p n_subframes TTI ticks.  Each tick offers every lane one
     * subframe of its model (models.size() == n_cells; each consumed
     * from its current state) under the configured deadline/shed
     * policy; the rings drain into the shared window by round-robin.
     */
    MultiCellRunRecord
    run(const std::vector<workload::ParameterModel *> &models,
        std::size_t n_subframes);

    /** One-lane run(): the lane's record with the pool aggregates. */
    RunRecord run(workload::ParameterModel &model,
                  std::size_t n_subframes);

  private:
    struct Lane;
    struct SamplePlane;

    Lane &lane_at(std::size_t cell) const;
    void open_sample_plane(SamplePlane &plane,
                           std::vector<GeneratorSampleSource> &generators);

    /** Run one arrived frame through the lane's admission policy. */
    void consume_frame(Lane &lane, io::IqFrame *frame,
                       MultiCellRunRecord *record);
    /** Shed pending-ring heads that aged past the deadline. */
    void expire_pending(Lane &lane);
    /** Move the lane's pending head into the shared window (degrade
     *  check, dispatch stamp, pool submit or serial execution). */
    void admit_one(Lane &lane);
    /** Round-robin drain of all pending rings into the window. */
    void admit_rr();
    /** The Sec. IV-A reference: process_all per user, in order. */
    void run_serial(SubframeJob &job);
    /** Pop completed jobs off every lane's executing front into
     *  @p record, or into outcome_ when null (process_subframe). */
    void reap_all(MultiCellRunRecord *record);
    /** Block on the globally oldest admitted job, then reap. */
    void drain_one(MultiCellRunRecord *record);
    /** Account, report and release one finished job. */
    void complete(Lane &lane, SubframeJob *job,
                  const SubframeOutcome &outcome);
    /** Account one shed subframe (tallies, kShed span, feedback). */
    void observe_shed(Lane &lane, std::uint64_t subframe_index,
                      bool expired);
    /** Fold the lane's producer-side frame losses into its shed
     *  accounting. */
    void sync_io_stats(Lane &lane, const io::FeedStats &stats);
    /** Release a job to its lane's pool, recycling its sample-plane
     *  frame (if any) to the lane's free ring first. */
    void release_job(Lane &lane, SubframeJob *job);
    /** The lane's Eq. 4 estimate (-1 without an estimator). */
    double estimate(Lane &lane, const phy::SubframeParams &params,
                    std::size_t backlog,
                    phy::DegradeLevel level = phy::DegradeLevel::kNone);
    /** Eq. 5 over the clamped sum of the lanes' last estimates. */
    void update_active_workers();

    MultiCellConfig config_;
    EngineObs obs_;
    std::unique_ptr<WorkerPool> pool_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::optional<mgmt::WorkloadEstimator> estimator_;

    std::size_t total_pending_ = 0;
    std::size_t total_executing_ = 0;
    /** Next admission-order stamp (monotonic across lanes). */
    std::uint64_t admit_seq_ = 0;
    /** Round-robin scan start for the next admission. */
    std::size_t rr_next_ = 0;

    SubframeOutcome outcome_;
};

/** Names kept for the single- and multi-cell call sites. */
using StreamingEngine = Engine;
using MultiCellEngine = Engine;

/** Build an engine from config (one lane). */
inline std::unique_ptr<Engine>
make_engine(const EngineConfig &config)
{
    return std::make_unique<Engine>(config);
}

} // namespace lte::runtime

#endif // LTE_RUNTIME_ENGINE_HPP
