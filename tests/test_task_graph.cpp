/**
 * @file
 * Continuation-graph correctness: the non-blocking task graph
 * (chanest -> weights -> demod -> per-codeblock tail -> reduce) must
 * be invisible in the output.  Covered here:
 *
 *  - digest parity against the serial reference across layer counts
 *    1..4, antenna counts 2 and 4, and transport blocks large enough
 *    to split into many tail codeblocks (the parallel tail's slices
 *    must compose to exactly the serial descramble/harden stream);
 *  - a 1-worker pool completing a maximal tail fan-out (the graph has
 *    no blocking joins, so a single worker draining its own deque
 *    LIFO must terminate — a regression proof against reintroducing
 *    stage waits);
 *  - a soak of repeated multi-user subframes under active stealing
 *    and tracing, for ThreadSanitizer interleaving coverage of the
 *    final-decrement continuation enqueues (the `tsan` preset runs
 *    this suite);
 *  - the op-model tail split identity and the degraded-aware
 *    estimator built on it;
 *  - the decode-iteration ladder's single home: the op model, the
 *    estimator and the receiver all spend phy::turbo_iterations_for.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>

#include "channel/signal_source.hpp"
#include "common/rng.hpp"
#include "mgmt/estimator.hpp"
#include "obs/trace.hpp"
#include "phy/op_model.hpp"
#include "phy/user_processor.hpp"
#include "runtime/engine.hpp"

namespace lte::runtime {
namespace {

/** Pool width for the parallel engines under test.  LTE_WORKERS
 *  (clamped to 1..8) overrides the default so the same binary proves
 *  the graph at both extremes — check.sh runs an LTE_WORKERS=1 leg,
 *  where any reintroduced stage wait would deadlock every test, not
 *  just the dedicated single-worker one. */
std::size_t
workers_from_env()
{
    const char *env = std::getenv("LTE_WORKERS");
    if (env == nullptr)
        return 4;
    const long parsed = std::strtol(env, nullptr, 10);
    return static_cast<std::size_t>(std::clamp(parsed, 1L, 8L));
}

/** Users spanning every layer count, with a 48-codeblock monster
 *  (200 PRB x 4 layers x 64QAM: every canonical symbol block exceeds
 *  kTailCodeblockBits on its own) and a minimal 2-PRB allocation. */
phy::SubframeParams
graph_subframe(std::uint64_t index)
{
    phy::SubframeParams sf;
    sf.subframe_index = index;
    const std::array<std::uint32_t, 4> prbs = {2, 25, 96, 200};
    const std::array<Modulation, 4> mods = {
        Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam,
        Modulation::k64Qam};
    for (std::uint32_t u = 0; u < 4; ++u) {
        phy::UserParams user;
        user.id = u;
        user.prb = prbs[u];
        user.layers = u + 1;
        user.mod = mods[u];
        sf.users.push_back(user);
    }
    return sf;
}

/** LTE_REAL_TURBO=1 re-runs this whole suite with the max-log-MAP
 *  decoder on (realistic decodable input so CRC early termination is
 *  exercised) — check.sh runs that leg for parity coverage of the
 *  decode fan-out under both release and ThreadSanitizer builds. */
bool
real_turbo_from_env()
{
    const char *env = std::getenv("LTE_REAL_TURBO");
    return env != nullptr && env[0] == '1';
}

EngineConfig
graph_config(EngineKind kind, std::size_t n_workers,
             std::size_t n_antennas, bool tracing = false)
{
    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = n_workers;
    cfg.receiver.n_antennas = n_antennas;
    cfg.input.n_antennas = n_antennas;
    cfg.input.pool_size = 4;
    cfg.input.seed = 77;
    cfg.obs.enabled = tracing;
    if (real_turbo_from_env()) {
        cfg.receiver.use_real_turbo = true;
        cfg.input.realistic = true;
        cfg.input.real_turbo = true;
        // Rank-4 MMSE noise enhancement: high SNR keeps every CRC
        // green so the soak converges in few decoder iterations.
        cfg.input.snr_db = 45.0;
    }
    return cfg;
}

/** Real-decode configuration regardless of the environment. */
EngineConfig
real_turbo_config(EngineKind kind, std::size_t n_workers,
                  bool tracing = false)
{
    EngineConfig cfg = graph_config(kind, n_workers, 4, tracing);
    cfg.receiver.use_real_turbo = true;
    cfg.input.realistic = true;
    cfg.input.real_turbo = true;
    cfg.input.snr_db = 45.0;
    return cfg;
}

void
expect_user_parity(const SubframeOutcome &serial,
                   const SubframeOutcome &parallel,
                   const std::string &context)
{
    ASSERT_EQ(serial.users.size(), parallel.users.size()) << context;
    for (std::size_t u = 0; u < serial.users.size(); ++u) {
        EXPECT_EQ(serial.users[u].user_id, parallel.users[u].user_id)
            << context << " user " << u;
        EXPECT_EQ(serial.users[u].checksum, parallel.users[u].checksum)
            << context << " user " << u;
        EXPECT_EQ(serial.users[u].crc_ok, parallel.users[u].crc_ok)
            << context << " user " << u;
        // The reduce folds per-codeblock EVM partials in canonical
        // index order — the same arithmetic, in the same order, as
        // the serial chain — so even the float must match exactly.
        EXPECT_EQ(serial.users[u].evm_rms, parallel.users[u].evm_rms)
            << context << " user " << u;
    }
}

TEST(TaskGraph, DigestParityWithSerialAcrossLayersAndAntennas)
{
    const std::size_t n_workers = workers_from_env();
    for (const std::size_t n_antennas : {2u, 4u}) {
        auto serial = make_engine(
            graph_config(EngineKind::kSerial, 1, n_antennas));
        auto pooled = make_engine(
            graph_config(EngineKind::kStreaming, n_workers,
                         n_antennas));
        for (std::uint64_t i = 0; i < 4; ++i) {
            const phy::SubframeParams sf = graph_subframe(i);
            const SubframeOutcome ref = serial->process_subframe(sf);
            const std::string ctx =
                "antennas=" + std::to_string(n_antennas) +
                " subframe=" + std::to_string(i);
            expect_user_parity(ref, pooled->process_subframe(sf), ctx);
        }
    }
}

TEST(TaskGraph, SingleWorkerCompletesMaximalTailFanOut)
{
    // One worker, no helpers to steal: if any stage transition waited
    // instead of enqueueing its continuation, this would deadlock.
    // The 200-PRB 4-layer user seeds 48 tail tasks from one final
    // demod decrement, the largest burst the graph can produce.
    auto serial = make_engine(graph_config(EngineKind::kSerial, 1, 4));
    auto one = make_engine(graph_config(EngineKind::kStreaming, 1, 4));
    const phy::SubframeParams sf = graph_subframe(0);
    const SubframeOutcome ref = serial->process_subframe(sf);
    expect_user_parity(ref, one->process_subframe(sf), "one-worker");
}

TEST(TaskGraph, ContinuationSoakStableUnderStealing)
{
    // TSan target: repeated multi-user subframes on a small pool force
    // thieves to race the owner on every deque while final decrements
    // publish and enqueue continuations.  The digest must never move.
    const std::size_t n_workers = workers_from_env();
    auto serial = make_engine(graph_config(EngineKind::kSerial, 1, 4));
    auto ws = make_engine(graph_config(EngineKind::kStreaming,
                                       n_workers, 4, /*tracing=*/true));
    const phy::SubframeParams sf = graph_subframe(1);
    for (int iter = 0; iter < 40; ++iter) {
        // Both engines draw from cycling input pools, so the serial
        // reference advances in lock-step with the pool under test.
        const SubframeOutcome ref = serial->process_subframe(sf);
        expect_user_parity(ref, ws->process_subframe(sf),
                           "soak iter " + std::to_string(iter));
    }
    if (n_workers > 1) {
        EXPECT_GT(ws->worker_pool()->steals(), 0u);
    }
}

TEST(TaskGraph, TailSpansAreTraced)
{
    auto ws = make_engine(
        graph_config(EngineKind::kStreaming, 3, 4, /*tracing=*/true));
    ws->process_subframe(graph_subframe(2));
    ASSERT_NE(ws->tracer(), nullptr);
    std::size_t tail_cb = 0, tail_reduce = 0;
    std::vector<obs::TraceEvent> events;
    for (std::size_t slot = 0; slot < ws->tracer()->n_slots(); ++slot) {
        ws->tracer()->slot(slot).snapshot(events);
        for (const auto &event : events) {
            tail_cb += event.kind == obs::SpanKind::kTailCb;
            tail_reduce += event.kind == obs::SpanKind::kTailReduce;
        }
    }
    // One reduce per user; at least one codeblock span per user and
    // 48 for the 200-PRB 4-layer monster alone.
    EXPECT_EQ(tail_reduce, 4u);
    EXPECT_GE(tail_cb, 48u + 3u);
}

TEST(TaskGraph, RealTurboDigestParityWithSerial)
{
    // The per-codeblock decode fan-out must be invisible in the
    // output: the serial and the pooled engine running the real
    // max-log-MAP decoder agree bit for bit, including the per-user
    // iteration tallies (early termination is a function of the block
    // data only, not of scheduling).
    const std::size_t n_workers = workers_from_env();
    auto serial = make_engine(real_turbo_config(EngineKind::kSerial, 1));
    auto ws = make_engine(
        real_turbo_config(EngineKind::kStreaming, n_workers));
    for (std::uint64_t i = 0; i < 2; ++i) {
        const phy::SubframeParams sf = graph_subframe(i);
        const SubframeOutcome ref = serial->process_subframe(sf);
        for (const auto &user : ref.users)
            EXPECT_TRUE(user.crc_ok) << "user " << user.user_id;
        const std::string ctx = "real-turbo subframe " +
                                std::to_string(i);
        const SubframeOutcome ws_out = ws->process_subframe(sf);
        expect_user_parity(ref, ws_out, ctx);
        for (std::size_t u = 0; u < ref.users.size(); ++u) {
            EXPECT_EQ(ref.users[u].decode_iterations,
                      ws_out.users[u].decode_iterations)
                << ctx << " user " << u;
        }
    }
}

TEST(TaskGraph, DecodeSpansFanOutAcrossWorkers)
{
    // Acceptance check: a full real-decode user subframe fans its
    // decode stage across the pool instead of serializing it on the
    // worker that ran the last tail codeblock.  The 200-PRB 4-layer
    // 64QAM monster segments into 19 turbo code blocks.
    auto ws = make_engine(
        real_turbo_config(EngineKind::kStreaming, 4, /*tracing=*/true));
    phy::SubframeParams sf;
    phy::UserParams user;
    user.id = 0;
    user.prb = 200;
    user.layers = 4;
    user.mod = Modulation::k64Qam;
    sf.users.push_back(user);
    for (std::uint64_t i = 0; i < 3; ++i) {
        sf.subframe_index = i;
        ws->process_subframe(sf);
    }

    ASSERT_NE(ws->tracer(), nullptr);
    std::size_t decode_spans = 0, workers_with_decode = 0;
    std::vector<obs::TraceEvent> events;
    for (std::size_t slot = 0; slot < ws->tracer()->n_slots(); ++slot) {
        ws->tracer()->slot(slot).snapshot(events);
        std::size_t here = 0;
        for (const auto &event : events)
            here += event.kind == obs::SpanKind::kDecodeCb;
        decode_spans += here;
        workers_with_decode += here > 0;
    }
    EXPECT_EQ(decode_spans, 3u * 19u);
    EXPECT_GE(workers_with_decode, 2u);
}

TEST(TaskGraph, OpModelDecodeCostMonotoneInIterationBudget)
{
    // Admission must price real decode above pass-through and price
    // bigger iteration budgets strictly higher (the reduced-iteration
    // shed rung lands between bypass and the full budget).
    phy::UserParams user;
    user.prb = 96;
    user.layers = 2;
    user.mod = Modulation::k64Qam;
    std::uint64_t prev = phy::user_task_costs(user, 4).total();
    for (const std::uint32_t iterations : {0u, 1u, 2u, 4u, 6u, 8u}) {
        const auto costs = phy::user_task_costs(
            user, 4, false, phy::DecodeModel{true, iterations});
        EXPECT_GT(costs.n_decode_tasks, 0u);
        EXPECT_GT(costs.total(), prev) << "iterations=" << iterations;
        prev = costs.total();
    }
    // The default DecodeModel reproduces the historical charge.
    EXPECT_EQ(phy::user_task_costs(user, 4, false, {}).total(),
              phy::user_task_costs(user, 4).total());
}

/** Slopes 1e-4, 2e-4, 3e-4 per PRB for QPSK, 16QAM and 64QAM at every
 *  layer count. */
mgmt::CalibrationTable
flat_table()
{
    mgmt::CalibrationTable table;
    for (std::uint32_t layers = 1; layers <= kMaxLayers; ++layers) {
        table.set(layers, Modulation::kQpsk, 1e-4);
        table.set(layers, Modulation::k16Qam, 2e-4);
        table.set(layers, Modulation::k64Qam, 3e-4);
    }
    return table;
}

TEST(TaskGraph, EstimatorPricesDecodeLadderMonotonically)
{
    mgmt::WorkloadEstimator estimator(flat_table());
    estimator.set_real_turbo(true);

    const phy::SubframeParams sf = graph_subframe(0);
    const double full =
        estimator.estimate_subframe(sf, 0, phy::DegradeLevel::kNone);
    const double reduced = estimator.estimate_subframe(
        sf, 0, phy::DegradeLevel::kReducedIterations);
    const double bypass =
        estimator.estimate_subframe(sf, 0, phy::DegradeLevel::kBypass);
    ASSERT_GT(full, 0.0);
    ASSERT_LT(full, 1.0);
    EXPECT_GT(full, reduced);
    EXPECT_GT(reduced, bypass);
    EXPECT_GT(bypass, 0.0);

    // The degraded chain's op-model price is monotone in the decode
    // iteration budget, starting from the bypass (0 iterations).
    const auto degraded_cost = [&sf](std::uint32_t budget) {
        std::uint64_t total = 0;
        for (const phy::UserParams &user : sf.users) {
            total += phy::user_task_costs(user, 4, true,
                                          phy::DecodeModel{true, budget})
                         .total();
        }
        return total;
    };
    std::uint64_t prev = degraded_cost(0);
    for (const std::uint32_t budget : {1u, 2u, 4u, 6u}) {
        const std::uint64_t cost = degraded_cost(budget);
        EXPECT_GT(cost, prev) << "budget=" << budget;
        prev = cost;
    }
}

TEST(DecodeLadder, OneBudgetPerShedLevel)
{
    // The receiver, the op model and the estimator all take their
    // per-level decode budget from phy::turbo_iterations_for.
    phy::ReceiverConfig rcfg;
    rcfg.use_real_turbo = true;
    mgmt::WorkloadEstimator estimator(flat_table());
    estimator.set_real_turbo(true);

    phy::UserParams user;
    user.id = 3;
    user.prb = 50;
    user.layers = 2;
    user.mod = Modulation::k16Qam;
    const std::size_t n_blocks =
        phy::turbo_segment(phy::capacity_bits(user)).n_blocks;
    ASSERT_GE(n_blocks, 2u);
    // At -10 dB no code block passes its CRC, so every decode runs
    // its whole budget.
    Rng rng(23);
    const auto noisy = channel::realistic_user_signal(user, 4, -10.0, rng,
                                                      /*real_turbo=*/true);
    const auto full_cost =
        phy::user_task_costs(user, 4, false, phy::decode_model(rcfg))
            .total();

    for (const phy::DegradeLevel level :
         {phy::DegradeLevel::kNone, phy::DegradeLevel::kReducedIterations,
          phy::DegradeLevel::kBypass}) {
        const std::uint32_t budget = phy::turbo_iterations_for(level);
        const int l = static_cast<int>(level);
        EXPECT_EQ(phy::decode_model(rcfg, level).iterations, budget)
            << "level " << l;

        const auto cost =
            phy::user_task_costs(user, 4, level != phy::DegradeLevel::kNone,
                                 phy::decode_model(rcfg, level))
                .total();
        EXPECT_EQ(estimator.shed_cost_ratio(user, level),
                  static_cast<double>(cost) /
                      static_cast<double>(full_cost))
            << "level " << l;

        phy::UserProcessor proc(rcfg);
        proc.bind(user, &noisy.signal);
        proc.set_degrade(level);
        const phy::UserResult &result = proc.process_all();
        EXPECT_FALSE(result.crc_ok) << "level " << l;
        EXPECT_EQ(result.decode_iterations, budget * n_blocks)
            << "level " << l;
    }
}

TEST(TaskGraph, OpModelTailSplitPreservesTotals)
{
    // The per-task decomposition must tile the aggregate exactly:
    // tail == tail_task * n_tail_tasks + tail_reduce, with the task
    // count equal to the greedy 6144-bit segmentation.
    for (std::uint32_t layers = 1; layers <= 4; ++layers) {
        for (const std::uint32_t prb : {2u, 25u, 96u, 200u}) {
            for (const auto mod :
                 {Modulation::kQpsk, Modulation::k16Qam,
                  Modulation::k64Qam}) {
                phy::UserParams user;
                user.prb = prb;
                user.layers = layers;
                user.mod = mod;
                const auto costs = phy::user_task_costs(user, 4);
                EXPECT_EQ(costs.n_tail_tasks,
                          phy::tail_codeblock_count(user));
                EXPECT_EQ(costs.tail,
                          costs.tail_task * costs.n_tail_tasks +
                              costs.tail_reduce);
                // The degraded chain swaps the MMSE solve for MRC
                // weights, so it can only get cheaper.
                const auto degraded =
                    phy::user_task_costs(user, 4, /*degraded=*/true);
                EXPECT_LE(degraded.total(), costs.total());
                if (layers >= 2 && prb >= 25) {
                    EXPECT_LT(degraded.total(), costs.total());
                }
            }
        }
    }
}

TEST(TaskGraph, EstimatorScalesDegradedSubframesDown)
{
    mgmt::WorkloadEstimator estimator(flat_table());

    const phy::SubframeParams sf = graph_subframe(0);
    const double full =
        estimator.estimate_subframe(sf, 0, phy::DegradeLevel::kNone);
    const double degraded =
        estimator.estimate_subframe(sf, 0, phy::DegradeLevel::kBypass);
    ASSERT_GT(full, 0.0);
    ASSERT_LT(full, 1.0) << "slopes too hot; degraded test would clamp";
    EXPECT_LT(degraded, full);
    EXPECT_GT(degraded, 0.0);
    EXPECT_EQ(estimator.stats().degraded_estimates, 1u);
    EXPECT_EQ(estimator.stats().subframe_estimates, 2u);

    // Backlog boosting applies on top of the degraded base.
    const double boosted =
        estimator.estimate_subframe(sf, 2, phy::DegradeLevel::kBypass);
    EXPECT_GT(boosted, degraded);
}

} // namespace
} // namespace lte::runtime
