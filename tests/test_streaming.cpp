/**
 * @file
 * Streaming-engine tests: lossless parity with the serial reference,
 * admission accounting under overload (shed + completed == submitted,
 * per lane at one and two cells),
 * shed-policy behaviour, degraded-chain fallback and deadline-bounded
 * latency.  Suite names start with "Streaming" so the tsan preset's
 * test filter picks them up (multiple subframes genuinely execute
 * concurrently here).
 *
 * Overload tests read knobs from the environment so CI can sweep a
 * max_inflight matrix without recompiling:
 *   LTE_STREAM_MAX_INFLIGHT   in-flight bound (default 2)
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace lte::runtime {
namespace {

std::size_t
env_size_t(const char *name, std::size_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return static_cast<std::size_t>(std::stoul(value));
}

EngineConfig
parity_config(EngineKind kind)
{
    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = 4;
    cfg.input.pool_size = 4;
    cfg.input.seed = 77;
    return cfg;
}

workload::PaperModelConfig
randomized_model_config()
{
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 40;
    cfg.prob_update_interval = 5;
    cfg.seed = 77;
    return cfg;
}

/** A subframe heavy enough that a tiny pool cannot keep TTI pace. */
phy::UserParams
heavy_user()
{
    phy::UserParams u;
    u.id = 0;
    u.prb = 100;
    u.layers = 4;
    u.mod = Modulation::k64Qam;
    return u;
}

/** Overload scenario: arrivals far faster than the pool drains them. */
EngineConfig
overload_config(ShedPolicy policy)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = env_size_t("LTE_STREAM_MAX_INFLIGHT", 2);
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.05; // 20x the 1 ms cadence, scaled for test time
    cfg.deadline_ms = 2.0;
    cfg.shed_policy = policy;
    return cfg;
}

const StreamingEngine &
as_streaming(const Engine &engine)
{
    return dynamic_cast<const StreamingEngine &>(engine);
}

// ------------------------------------------------------------ parity

TEST(StreamingParity, LosslessSerialisedRunMatchesWorkStealing)
{
    // max_in_flight = 1 and an infinite deadline: the engine
    // degenerates to lock-step processing with backpressure, so its
    // output must be bit-identical to the default pipelined engine
    // over the same randomized model stream (paper Sec. IV-D,
    // extended to the streaming pipeline).
    const std::size_t n = 25;

    auto reference = make_engine(parity_config(EngineKind::kStreaming));
    workload::PaperModel ref_model(randomized_model_config());
    const RunRecord ref = reference->run(ref_model, n);

    EngineConfig cfg = parity_config(EngineKind::kStreaming);
    cfg.max_in_flight = 1;
    cfg.deadline_ms = 0.0;
    auto streaming = make_engine(cfg);
    workload::PaperModel model(randomized_model_config());
    const RunRecord record = streaming->run(model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());
    EXPECT_GT(ref.user_count(), 0u);

    const auto &stats = as_streaming(*streaming).shed_stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.completed, n);
    EXPECT_EQ(stats.shed, 0u);
}

TEST(StreamingParity, LosslessPipelinedRunStaysBitIdentical)
{
    // Even with several subframes genuinely overlapping in the pool,
    // backpressure mode loses nothing and in-order reaping keeps the
    // record in arrival order — the digest still matches.
    const std::size_t n = 25;

    auto reference = make_engine(parity_config(EngineKind::kSerial));
    workload::PaperModel ref_model(randomized_model_config());
    const RunRecord ref = reference->run(ref_model, n);

    EngineConfig cfg = parity_config(EngineKind::kStreaming);
    cfg.max_in_flight = 3;
    cfg.admission_queue = 4;
    cfg.deadline_ms = 0.0;
    auto streaming = make_engine(cfg);
    workload::PaperModel model(randomized_model_config());
    const RunRecord record = streaming->run(model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());
}

TEST(StreamingParity, ProcessSubframeMatchesSerial)
{
    auto serial = make_engine(parity_config(EngineKind::kSerial));
    auto streaming = make_engine(parity_config(EngineKind::kStreaming));

    workload::PaperModel model(randomized_model_config());
    std::size_t users_seen = 0;
    for (std::size_t i = 0; i < 15; ++i) {
        const phy::SubframeParams params = model.next_subframe();
        const SubframeOutcome &a = serial->process_subframe(params);
        const SubframeOutcome &b = streaming->process_subframe(params);
        ASSERT_EQ(a.users.size(), b.users.size()) << "subframe " << i;
        for (std::size_t u = 0; u < a.users.size(); ++u) {
            EXPECT_EQ(a.users[u].checksum, b.users[u].checksum)
                << "subframe " << i << " user " << u;
            EXPECT_EQ(a.users[u].crc_ok, b.users[u].crc_ok);
        }
        users_seen += a.users.size();
    }
    EXPECT_GT(users_seen, 0u);
}

TEST(StreamingFactory, MakesStreamingEngine)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    auto engine = make_engine(cfg);
    EXPECT_STREQ(engine->name(), "streaming");
    ASSERT_NE(engine->worker_pool(), nullptr);
    EXPECT_EQ(engine->worker_pool()->n_workers(), 2u);
    EXPECT_STREQ(engine_kind_name(EngineKind::kStreaming), "streaming");
    EXPECT_STREQ(shed_policy_name(ShedPolicy::kDropNewest),
                 "drop-newest");
    EXPECT_STREQ(shed_policy_name(ShedPolicy::kDropOldest),
                 "drop-oldest");
    EXPECT_STREQ(shed_policy_name(ShedPolicy::kDegrade), "degrade");
}

TEST(StreamingConfig, RejectsInvalidStreamingConfig)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kStreaming;
    cfg.deadline_ms = -1.0;
    EXPECT_THROW(make_engine(cfg), std::invalid_argument);
    cfg = {};
    cfg.kind = EngineKind::kStreaming;
    cfg.admission_queue = 0;
    EXPECT_THROW(make_engine(cfg), std::invalid_argument);
}

// ---------------------------------------------------------- overload

TEST(StreamingOverload, AccountingBalancesUnderEveryPolicy)
{
    // The load-shedding soak: offered load far beyond capacity; every
    // arrival must be accounted for exactly once, on every lane.
    const std::size_t n = 60;
    for (const std::size_t cells : {1u, 2u}) {
        for (ShedPolicy policy :
             {ShedPolicy::kDropNewest, ShedPolicy::kDropOldest,
              ShedPolicy::kDegrade}) {
            MultiCellConfig cfg;
            cfg.n_cells = cells;
            cfg.engine = overload_config(policy);
            MultiCellEngine engine(cfg);
            std::vector<workload::SteadyModel> models(
                cells, workload::SteadyModel(heavy_user()));
            std::vector<workload::ParameterModel *> ptrs;
            for (auto &model : models)
                ptrs.push_back(&model);
            const MultiCellRunRecord record = engine.run(ptrs, n);
            const std::string ctx = std::string(shed_policy_name(policy)) +
                                    ", " + std::to_string(cells) +
                                    " cell(s)";

            // Untraced: the tallies must not depend on the tracer.
            ASSERT_EQ(engine.tracer(), nullptr);
            std::uint64_t total_completed = 0;
            for (std::size_t c = 0; c < cells; ++c) {
                const ShedStats &stats = engine.shed_stats(c);
                EXPECT_EQ(stats.submitted, n) << ctx;
                EXPECT_EQ(stats.shed + stats.completed, stats.submitted)
                    << ctx;
                EXPECT_EQ(stats.shed_queue_full + stats.shed_expired,
                          stats.shed)
                    << ctx;
                EXPECT_GT(stats.shed, 0u)
                    << ctx << ": 20x overload should force shedding";
                EXPECT_EQ(record.cells[c].subframes.size(), stats.completed)
                    << ctx;
                total_completed += stats.completed;
            }
            // A lane can starve when every admission opportunity finds
            // its queue head expired (slow sanitizer builds), so only
            // the run as a whole must complete work.
            EXPECT_GT(total_completed, 0u) << ctx;
            // Per-cell op totals price each job as the pool ran it, so
            // a degraded job's MRC weights count the same on both.
            std::uint64_t cell_ops = 0;
            for (const RunRecord &cell : record.cells)
                cell_ops += cell.total_ops;
            EXPECT_EQ(cell_ops, record.total_ops) << ctx;
        }
    }
}

TEST(StreamingOverload, ShedReasonFollowsTheCause)
{
    // Each shed is booked under its cause, whatever the timing.  (a) A
    // deadline nothing reaches: every shed is a full ring.  (b) A ring
    // that never fills: every shed is an expiry.
    const std::size_t n = 20;
    EngineConfig full = overload_config(ShedPolicy::kDropNewest);
    full.delta_ms = 0.0; // free-running
    full.deadline_ms = 1e9;
    full.admission_queue = 1;
    full.max_in_flight = 1;
    auto full_engine = make_engine(full);
    workload::SteadyModel full_model(heavy_user());
    full_engine->run(full_model, n);
    const ShedStats &a = full_engine->shed_stats();
    EXPECT_EQ(a.shed_expired, 0u);
    EXPECT_EQ(a.shed_queue_full, a.shed);
    EXPECT_EQ(a.shed + a.completed, n);

    EngineConfig expire = overload_config(ShedPolicy::kDropNewest);
    expire.deadline_ms = 1e-6;
    expire.admission_queue = n;
    auto expire_engine = make_engine(expire);
    workload::SteadyModel expire_model(heavy_user());
    expire_engine->run(expire_model, n);
    const ShedStats &b = expire_engine->shed_stats();
    EXPECT_EQ(b.shed_queue_full, 0u);
    EXPECT_EQ(b.shed_expired, b.shed);
    EXPECT_EQ(b.shed + b.completed, n);
}

double measured_service_ms(); // defined below

TEST(StreamingOverload, LatencyStaysBoundedByDeadline)
{
    // With shedding on, no completed subframe can have waited past the
    // deadline for admission, so admission-to-completion latency is
    // bounded by deadline_ms plus the in-flight drain time.
    const double service_ms = measured_service_ms();
    const std::size_t n = 80;
    EngineConfig cfg = overload_config(ShedPolicy::kDropOldest);
    cfg.obs.enabled = true;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    const obs::SubframeSeries *series = engine->subframe_series();
    ASSERT_NE(series, nullptr);
    ASSERT_GT(series->size(), 0u);
    std::vector<double> latencies;
    latencies.reserve(series->size());
    for (std::size_t i = 0; i < series->size(); ++i)
        latencies.push_back(series->at(i).latency_ms());
    std::sort(latencies.begin(), latencies.end());
    const double p99 =
        latencies[static_cast<std::size_t>(
            0.99 * static_cast<double>(latencies.size() - 1))];
    // Queue wait is capped at deadline_ms by the expiry check; the
    // rest is draining the jobs already in flight, at worst
    // max_in_flight serial service times on a single core.  The bound
    // scales with the measured service time so it holds on slow or
    // sanitized builds, with a 2x margin + 5 ms for scheduling noise.
    const double bound =
        cfg.deadline_ms +
        2.0 * static_cast<double>(cfg.max_in_flight) * service_ms + 5.0;
    EXPECT_LT(p99, bound)
        << "service " << service_ms << " ms, max_in_flight "
        << cfg.max_in_flight;

    // Un-shed load under the same pressure has unbounded queueing; the
    // controller must have intervened for the bound above to mean
    // anything.
    EXPECT_GT(as_streaming(*engine).shed_stats().shed, 0u);
}

/** Measure the serial per-subframe service time for the heavy user so
 *  overload tests can pick a deadline relative to this machine's real
 *  speed instead of a hard-coded guess. */
double
measured_service_ms()
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kSerial;
    cfg.input.pool_size = 2;
    auto engine = make_engine(cfg);
    phy::SubframeParams sf;
    sf.subframe_index = 0;
    sf.users.push_back(heavy_user());
    engine->process_subframe(sf); // warm-up: arenas, FFT plans
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 4; ++i)
        engine->process_subframe(sf);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           4.0;
}

/**
 * Mean completion spacing, in ms, of @p shape's engine run lossless
 * with its admission ring kept full: the interval at which that engine
 * admits queued subframes under sustained overload.  The pipeline
 * fill (the first kFill completions) is left out.
 */
double
measured_completion_spacing_ms(const EngineConfig &shape)
{
    constexpr std::size_t kFill = 4;
    const std::size_t n = 24;
    EngineConfig cfg = shape;
    cfg.deadline_ms = 0.0; // lossless: backpressure instead of shedding
    cfg.obs.enabled = true;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);
    const obs::SubframeSeries *series = engine->subframe_series();
    EXPECT_EQ(series->size(), n);
    std::vector<std::uint64_t> done;
    for (std::size_t i = 0; i < series->size(); ++i)
        done.push_back(series->at(i).t_complete_ns);
    std::sort(done.begin(), done.end());
    return static_cast<double>(done.back() - done[kFill]) / 1e6 /
           static_cast<double>(done.size() - 1 - kFill);
}

TEST(StreamingOverload, DegradePolicyFallsBackToDegradedChain)
{
    // Under kDegrade, subframes that burned over half their deadline
    // waiting are processed with MRC + turbo pass-through instead of
    // being dropped outright.
    //
    // The deadline must straddle the queueing delay for the degrade
    // window (D/2, D] to be hit at an admission opportunity.  Both
    // come from the completion spacing c of this same 2-worker,
    // 2-in-flight engine run lossless, so they see the parallel
    // efficiency the overloaded run gets.  Arrivals every c/4 keep the
    // 4-deep ring full for the whole run; a subframe enters it at one
    // admission and leaves four admissions later, aged about 4c.  With
    // D = 4c, a run up to 2x faster than the calibration still ages
    // subframes past D/2, and in a run up to 2x slower the ring's
    // oldest subframes expire until one within c of D is admitted.
    const std::size_t n = 60;
    EngineConfig cfg = overload_config(ShedPolicy::kDegrade);
    cfg.pool.n_workers = 2;
    cfg.max_in_flight = 2; // pinned: the env matrix shifts the ages
    cfg.admission_queue = 4;
    const double spacing_ms = measured_completion_spacing_ms(cfg);
    cfg.delta_ms = spacing_ms / 4.0;
    cfg.deadline_ms = 4.0 * spacing_ms;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    const auto &stats = as_streaming(*engine).shed_stats();
    EXPECT_GT(stats.degraded, 0u)
        << "sustained overload should push jobs past half deadline "
        << "(completion spacing " << spacing_ms << " ms, deadline "
        << cfg.deadline_ms << " ms)";
    EXPECT_GT(stats.completed, 0u);
    EXPECT_EQ(stats.shed + stats.completed, stats.submitted);
}

TEST(StreamingOverload, DegradedResultsDifferButRemainDeterministic)
{
    // The degraded chain is a different receiver (MRC weights), so its
    // checksums differ from the MMSE chain — but deterministically so.
    // MRC only diverges when there is inter-layer interference to
    // ignore, so this needs a multi-layer user (single-layer MRC and
    // MMSE coincide after bias correction).
    EngineConfig cfg = parity_config(EngineKind::kStreaming);
    auto run_degraded = [&cfg](bool degraded) {
        auto engine = make_engine(cfg);
        phy::SubframeParams params;
        params.subframe_index = 0;
        params.users.push_back(heavy_user());
        // Reach the degraded path via a direct processor, mirroring
        // what SubframeJob::set_degrade(kBypass) does per user.
        auto &input = engine->input();
        const auto signals = input.signals_for(params);
        phy::UserProcessor proc(cfg.receiver);
        proc.set_degrade(degraded ? phy::DegradeLevel::kBypass
                                  : phy::DegradeLevel::kNone);
        proc.bind(params.users.at(0), signals.at(0));
        return proc.process_all().checksum;
    };
    const std::uint64_t mmse_a = run_degraded(false);
    const std::uint64_t mmse_b = run_degraded(false);
    const std::uint64_t mrc_a = run_degraded(true);
    const std::uint64_t mrc_b = run_degraded(true);
    EXPECT_EQ(mmse_a, mmse_b);
    EXPECT_EQ(mrc_a, mrc_b);
    EXPECT_NE(mmse_a, mrc_a);
}

// --------------------------------------------------------------- obs

TEST(StreamingObs, ShedDecisionsAreTraced)
{
    const std::size_t n = 60;
    EngineConfig cfg = overload_config(ShedPolicy::kDropNewest);
    cfg.obs.enabled = true;
    auto engine = make_engine(cfg);
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    const auto &stats = as_streaming(*engine).shed_stats();
    ASSERT_GT(stats.shed, 0u);

    ASSERT_NE(engine->tracer(), nullptr);
    const std::size_t dispatch_slot = cfg.pool.n_workers;
    std::vector<obs::TraceEvent> events;
    engine->tracer()->slot(dispatch_slot).snapshot(events);
    std::size_t shed_spans = 0;
    for (const auto &e : events)
        shed_spans += e.kind == obs::SpanKind::kShed;
    EXPECT_EQ(shed_spans, stats.shed);
}

TEST(StreamingObs, BacklogAwareEstimatorSeesQueueDepth)
{
    // With an estimator installed and the NAP watermark on, the streaming
    // engine feeds the admission backlog into Eq. 4, so sustained
    // overload must produce backlog-boosted estimates.
    mgmt::CalibrationTable table;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        for (Modulation mod : kAllModulations)
            table.set(l, mod, 0.0005 * l);
    }
    const std::size_t n = 60;
    EngineConfig cfg = overload_config(ShedPolicy::kDropOldest);
    cfg.pool.reactive_idle = true;
    cfg.proactive = true;
    auto engine = make_engine(cfg);
    engine->set_estimator(mgmt::WorkloadEstimator(table));
    workload::SteadyModel model(heavy_user());
    engine->run(model, n);

    // The estimator is consumed by set_estimator; observe its effect
    // through a fresh estimator fed the same shapes.
    mgmt::WorkloadEstimator probe{table};
    phy::SubframeParams sf;
    sf.users.push_back(heavy_user());
    const double base = probe.estimate_subframe(sf);
    const double queued = probe.estimate_subframe(sf, 3);
    EXPECT_GT(queued, base);
    EXPECT_EQ(probe.stats().backlog_boosts, 1u);
}

} // namespace
} // namespace lte::runtime
