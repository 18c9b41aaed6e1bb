/**
 * @file
 * MAC closed-loop tests: per-seed determinism, the HARQ conservation
 * invariant (offered == delivered + residual, exact after finalize()),
 * pinned-grant bit-parity with the open-loop engines, link adaptation
 * under a degrading channel, and the crc_modelled provenance flag the
 * CQI estimator depends on.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "mac/grant_model.hpp"
#include "mac/mcs.hpp"
#include "mac/scheduler.hpp"
#include "phy/user_processor.hpp"
#include "runtime/engine.hpp"
#include "runtime/task.hpp"
#include "workload/paper_model.hpp"

namespace lte::mac {
namespace {

MacConfig
small_config(SchedulerPolicy policy = SchedulerPolicy::kRoundRobin)
{
    MacConfig cfg;
    cfg.seed = 42;
    cfg.n_ues = 40;
    cfg.policy = policy;
    cfg.arrival_rate = 3.0;
    cfg.burst_mean = 2.0;
    cfg.packet_bits = 3000;
    cfg.deadline_ttis = 30;
    cfg.snr_mean_db = 12.0f;
    return cfg;
}

/** Synthetic receiver feedback for every granted user of @p sf. */
runtime::SubframeOutcome
feedback_for(const phy::SubframeParams &sf, bool crc_ok, bool modelled,
             float evm_rms)
{
    runtime::SubframeOutcome outcome;
    outcome.subframe_index = sf.subframe_index;
    outcome.cell_id = sf.cell_id;
    for (const phy::UserParams &user : sf.users) {
        runtime::UserOutcome u;
        u.user_id = user.id;
        u.crc_ok = crc_ok;
        u.crc_modelled = modelled;
        u.evm_rms = evm_rms;
        outcome.users.push_back(u);
    }
    return outcome;
}

/** Drive @p ttis of the loop with immediate modelled feedback. */
void
run_modelled_loop(MacScheduler &sched, std::size_t ttis)
{
    phy::SubframeParams sf;
    for (std::size_t t = 0; t < ttis; ++t) {
        sched.next_tti_into(sf);
        if (!sf.users.empty()) {
            sched.on_subframe_complete(
                feedback_for(sf, false, true, 0.0f),
                phy::DegradeLevel::kNone);
        }
    }
}

workload::PaperModelConfig
paper_config(std::uint64_t seed)
{
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 40;
    cfg.prob_update_interval = 5;
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------------- determinism

TEST(MacDeterminism, SameSeedSameGrantSequence)
{
    MacScheduler a(small_config());
    MacScheduler b(small_config());
    phy::SubframeParams sa;
    phy::SubframeParams sb;
    for (std::size_t t = 0; t < 300; ++t) {
        a.next_tti_into(sa);
        b.next_tti_into(sb);
        ASSERT_EQ(sa.subframe_index, sb.subframe_index);
        ASSERT_EQ(sa.users.size(), sb.users.size()) << "tti " << t;
        for (std::size_t u = 0; u < sa.users.size(); ++u)
            ASSERT_EQ(sa.users[u], sb.users[u]) << "tti " << t;
        if (!sa.users.empty()) {
            a.on_subframe_complete(feedback_for(sa, false, true, 0.0f),
                                   phy::DegradeLevel::kNone);
            b.on_subframe_complete(feedback_for(sb, false, true, 0.0f),
                                   phy::DegradeLevel::kNone);
        }
    }
    a.finalize();
    b.finalize();
    const MacStats stats_a = a.stats();
    const MacStats stats_b = b.stats();
    EXPECT_EQ(stats_a.offered_tbs, stats_b.offered_tbs);
    EXPECT_EQ(stats_a.delivered_bits, stats_b.delivered_bits);
    EXPECT_EQ(stats_a.acks, stats_b.acks);
    EXPECT_GT(stats_a.grants, 0u);
}

TEST(MacDeterminism, ResetReproducesTheRun)
{
    MacScheduler sched(small_config());
    run_modelled_loop(sched, 200);
    const MacStats first = sched.stats();
    sched.reset();
    run_modelled_loop(sched, 200);
    const MacStats second = sched.stats();
    EXPECT_EQ(first.offered_bits, second.offered_bits);
    EXPECT_EQ(first.acks, second.acks);
    EXPECT_EQ(first.nacks, second.nacks);
    EXPECT_EQ(first.packets_arrived, second.packets_arrived);
}

// ------------------------------------------------------ conservation

TEST(MacConservation, ModelledLoopConservesAfterFinalize)
{
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::kRoundRobin,
          SchedulerPolicy::kProportionalFair,
          SchedulerPolicy::kDeadlineEdf}) {
        MacScheduler sched(small_config(policy));
        run_modelled_loop(sched, 500);
        sched.finalize();
        const MacStats stats = sched.stats();
        EXPECT_GT(stats.offered_tbs, 0u)
            << scheduler_policy_name(policy);
        EXPECT_TRUE(stats.conserved())
            << scheduler_policy_name(policy) << ": offered "
            << stats.offered_tbs << " != delivered "
            << stats.delivered_tbs << " + residual "
            << stats.residual_tbs;
    }
}

TEST(MacConservation, UnansweredGrantsRetireAsResidual)
{
    // Issue grants but never deliver feedback: finalize() must retire
    // every in-flight block so the invariant still closes.
    MacScheduler sched(small_config());
    phy::SubframeParams sf;
    for (std::size_t t = 0; t < 50; ++t)
        sched.next_tti_into(sf);
    sched.finalize();
    const MacStats stats = sched.stats();
    EXPECT_GT(stats.offered_tbs, 0u);
    EXPECT_EQ(stats.delivered_tbs, 0u);
    EXPECT_EQ(stats.residual_tbs, stats.offered_tbs);
    EXPECT_TRUE(stats.conserved());
}

TEST(MacConservation, ShedSubframesNackAndRetransmit)
{
    MacScheduler sched(small_config());
    phy::SubframeParams sf;
    sched.next_tti_into(sf);
    ASSERT_GT(sf.users.size(), 0u);
    sched.on_subframe_shed(sf.cell_id, sf.subframe_index);
    MacStats stats = sched.stats();
    EXPECT_EQ(stats.shed_ttis, 1u);
    EXPECT_EQ(stats.nacks, sf.users.size());
    // The NACKed blocks come back as retransmission grants.
    phy::SubframeParams next;
    sched.next_tti_into(next);
    stats = sched.stats();
    EXPECT_GT(stats.retx_grants, 0u);
    sched.finalize();
    EXPECT_TRUE(sched.stats().conserved());
}

// -------------------------------------------------------- adaptation

TEST(MacAdaptation, DegradingChannelStepsModulationDown)
{
    MacConfig cfg = small_config();
    cfg.snr_mean_db = 16.0f;
    cfg.snr_drift_db_per_tti = -0.02f; // -40 dB over the run
    cfg.snr_spread_db = 1.0f;
    MacScheduler sched(cfg);

    phy::SubframeParams sf;
    std::size_t early_qpsk = 0, early_total = 0;
    std::size_t late_qpsk = 0, late_total = 0;
    const std::size_t n = 2000;
    for (std::size_t t = 0; t < n; ++t) {
        sched.next_tti_into(sf);
        for (const phy::UserParams &user : sf.users) {
            if (t < 400) {
                ++early_total;
                early_qpsk += user.mod == Modulation::kQpsk;
            } else if (t >= n - 400) {
                ++late_total;
                late_qpsk += user.mod == Modulation::kQpsk;
            }
        }
        if (!sf.users.empty()) {
            sched.on_subframe_complete(
                feedback_for(sf, false, true, 0.0f),
                phy::DegradeLevel::kNone);
        }
    }
    ASSERT_GT(early_total, 0u);
    ASSERT_GT(late_total, 0u);
    const double early_frac =
        static_cast<double>(early_qpsk) / early_total;
    const double late_frac = static_cast<double>(late_qpsk) / late_total;
    // By the end the channel is ~40 dB worse: the ladder must have
    // walked down to (mostly) QPSK, while early grants mostly weren't.
    EXPECT_LT(early_frac, 0.5);
    EXPECT_GT(late_frac, 0.9);
}

TEST(MacAdaptation, AdaptiveResidualBeatsFixedHighMcsOnBadChannel)
{
    MacConfig adaptive = small_config();
    adaptive.snr_mean_db = 2.0f; // far below MCS 8's requirement
    adaptive.snr_spread_db = 1.0f;
    MacConfig fixed = adaptive;
    fixed.adapt = false;
    fixed.fixed_mcs = 8;

    MacScheduler sched_a(adaptive);
    MacScheduler sched_f(fixed);
    run_modelled_loop(sched_a, 1000);
    run_modelled_loop(sched_f, 1000);
    sched_a.finalize();
    sched_f.finalize();
    const MacStats sa = sched_a.stats();
    const MacStats sfx = sched_f.stats();
    ASSERT_GT(sa.offered_tbs, 0u);
    ASSERT_GT(sfx.offered_tbs, 0u);
    const double res_a =
        static_cast<double>(sa.residual_tbs) / sa.offered_tbs;
    const double res_f =
        static_cast<double>(sfx.residual_tbs) / sfx.offered_tbs;
    // HARQ + CQI adaptation keeps residual block errors well below a
    // fixed 64QAM-922 link on a 2 dB channel.
    EXPECT_LT(res_a, res_f);
    EXPECT_TRUE(sa.conserved());
    EXPECT_TRUE(sfx.conserved());
}

// --------------------------------------------------- crc provenance

TEST(MacCqi, ModelledCrcVerdictIsIgnored)
{
    // On the bypass/pass-through path crc_ok is ~always false (it
    // checks hardened bits that were never encoded).  The estimator
    // must NOT read it as a real NACK storm: with a strong modelled
    // channel the loop still delivers and holds a high MCS.
    MacConfig cfg = small_config();
    cfg.snr_mean_db = 20.0f;
    cfg.snr_spread_db = 0.5f;
    MacScheduler sched(cfg);
    phy::SubframeParams sf;
    std::size_t qam64 = 0, total = 0;
    for (std::size_t t = 0; t < 600; ++t) {
        sched.next_tti_into(sf);
        for (const phy::UserParams &user : sf.users) {
            if (t >= 300) {
                ++total;
                qam64 += user.mod == Modulation::k64Qam;
            }
        }
        if (!sf.users.empty()) {
            // crc_ok = false but crc_modelled = true on every report.
            sched.on_subframe_complete(
                feedback_for(sf, false, true, 0.0f),
                phy::DegradeLevel::kNone);
        }
    }
    sched.finalize();
    const MacStats stats = sched.stats();
    EXPECT_GT(stats.acks, stats.nacks);
    EXPECT_EQ(stats.real_feedback, 0u);
    EXPECT_GT(stats.modelled_feedback, 0u);
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(qam64) / total, 0.5);
}

TEST(MacCqi, RealCrcVerdictDrivesHarq)
{
    // Real decode feedback (crc_modelled = false) is trusted verbatim:
    // all-NACK runs exhaust the retransmission budget and every block
    // retires as residual.
    MacScheduler sched(small_config());
    phy::SubframeParams sf;
    for (std::size_t t = 0; t < 300; ++t) {
        sched.next_tti_into(sf);
        if (!sf.users.empty()) {
            sched.on_subframe_complete(
                feedback_for(sf, false, false, 0.3f),
                phy::DegradeLevel::kNone);
        }
    }
    sched.finalize();
    const MacStats stats = sched.stats();
    EXPECT_GT(stats.real_feedback, 0u);
    EXPECT_EQ(stats.modelled_feedback, 0u);
    EXPECT_EQ(stats.delivered_tbs, 0u);
    EXPECT_EQ(stats.residual_tbs, stats.offered_tbs);
    EXPECT_GT(stats.retx_grants, 0u);
    EXPECT_TRUE(stats.conserved());
}

TEST(CrcProvenance, PassThroughReceiverMarksOutcomesModelled)
{
    // Satellite regression: RunRecord.crc_ok is only meaningful when
    // the real turbo decoder ran; the pass-through path must say so.
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kSerial;
    cfg.input.pool_size = 2;
    cfg.input.seed = 5;
    auto engine = runtime::make_engine(cfg);
    workload::PaperModel model(paper_config(5));
    const runtime::RunRecord record = engine->run(model, 20);
    ASSERT_GT(record.user_count(), 0u);
    for (const runtime::SubframeOutcome &sf : record.subframes)
        for (const runtime::UserOutcome &u : sf.users)
            EXPECT_TRUE(u.crc_modelled);
}

TEST(CrcProvenance, RealTurboMarksOutcomesReal)
{
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kSerial;
    cfg.receiver.use_real_turbo = true;
    cfg.input.pool_size = 2;
    cfg.input.real_turbo = true;
    cfg.input.realistic = true;
    cfg.input.seed = 5;
    auto engine = runtime::make_engine(cfg);
    workload::PaperModel model(paper_config(5));
    const runtime::RunRecord record = engine->run(model, 10);
    ASSERT_GT(record.user_count(), 0u);
    for (const runtime::SubframeOutcome &sf : record.subframes)
        for (const runtime::UserOutcome &u : sf.users)
            EXPECT_FALSE(u.crc_modelled);
}

TEST(CrcProvenance, BypassDegradeFlipsRealDecodeToModelled)
{
    // Even with the real decoder configured, a shed-policy degrade to
    // kBypass hard-decides instead of decoding — the CRC verdict must
    // flip back to modelled, while kReducedIterations (still a real
    // decode) must not.
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kSerial;
    cfg.receiver.use_real_turbo = true;
    cfg.input.pool_size = 2;
    cfg.input.real_turbo = true;
    cfg.input.realistic = true;
    cfg.input.seed = 5;
    auto engine = runtime::make_engine(cfg);

    phy::SubframeParams params;
    params.subframe_index = 0;
    phy::UserParams user;
    user.id = 0;
    user.prb = 8;
    user.layers = 1;
    user.mod = Modulation::kQpsk;
    params.users.push_back(user);
    const auto signals = engine->input().signals_for(params);

    const auto provenance = [&](phy::DegradeLevel level) {
        phy::UserProcessor proc(cfg.receiver);
        proc.set_degrade(level);
        proc.bind(params.users.at(0), signals.at(0));
        return proc.process_all().crc_modelled;
    };
    EXPECT_FALSE(provenance(phy::DegradeLevel::kNone));
    EXPECT_FALSE(provenance(phy::DegradeLevel::kReducedIterations));
    EXPECT_TRUE(provenance(phy::DegradeLevel::kBypass));
}

// ------------------------------------------------ engine closed loop

TEST(StreamingMacClosedLoop, EngineRunConservesUnderShedding)
{
    MacConfig mc = small_config();
    mc.arrival_rate = 6.0;
    MacScheduler sched(mc);
    GrantModel model(sched);

    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = 2;
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.05;
    cfg.deadline_ms = 2.0;
    cfg.shed_policy = runtime::ShedPolicy::kDropOldest;
    cfg.feedback = &sched;
    auto engine = runtime::make_engine(cfg);

    const std::size_t n = 300;
    const runtime::RunRecord record = engine->run(model, n);
    sched.finalize();

    const auto &shed =
        dynamic_cast<runtime::StreamingEngine &>(*engine).shed_stats();
    EXPECT_EQ(shed.submitted, n);
    EXPECT_EQ(shed.completed + shed.shed, shed.submitted);

    const MacStats stats = sched.stats();
    EXPECT_GT(stats.offered_tbs, 0u);
    EXPECT_GT(stats.real_feedback + stats.modelled_feedback, 0u);
    EXPECT_TRUE(stats.conserved())
        << "offered " << stats.offered_tbs << " != delivered "
        << stats.delivered_tbs << " + residual " << stats.residual_tbs;
    EXPECT_EQ(record.subframes.size(), shed.completed);
}

TEST(StreamingMacClosedLoop, LosslessRunDeliversEverything)
{
    MacConfig mc = small_config();
    mc.arrival_rate = 1.0;
    MacScheduler sched(mc);
    GrantModel model(sched);

    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = 2;
    cfg.deadline_ms = 0.0; // lossless: backpressure instead of shed
    cfg.feedback = &sched;
    auto engine = runtime::make_engine(cfg);

    const runtime::RunRecord record = engine->run(model, 200);
    sched.finalize();
    const MacStats stats = sched.stats();
    EXPECT_EQ(record.subframes.size(), 200u);
    EXPECT_GT(stats.offered_tbs, 0u);
    EXPECT_EQ(stats.shed_ttis, 0u);
    EXPECT_TRUE(stats.conserved());
    // Every offered block got real engine feedback here, so the only
    // residuals are finalize()-retired in-flight stragglers, bounded
    // by the HARQ window.
    EXPECT_LE(stats.residual_tbs,
              static_cast<std::uint64_t>(kHarqProcesses) * mc.n_ues);
}

TEST(StreamingMacClosedLoop, OffloadedIoClosedLoopConserves)
{
    // The genuinely concurrent shape: grants are drawn on the sample
    // plane's producer thread (GrantModel inside the generator source)
    // while completion feedback arrives on the dispatch thread.  Run
    // under TSan via the Streaming* preset filter.
    MacConfig mc = small_config();
    mc.arrival_rate = 4.0;
    MacScheduler sched(mc);
    GrantModel model(sched);

    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = 2;
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.05;
    cfg.deadline_ms = 2.0;
    cfg.shed_policy = runtime::ShedPolicy::kDropOldest;
    cfg.io.enabled = true;
    cfg.io.n_frames = 4;
    cfg.feedback = &sched;
    auto engine = runtime::make_engine(cfg);

    const std::size_t n = 300;
    const runtime::RunRecord record = engine->run(model, n);
    sched.finalize();

    const auto &shed =
        dynamic_cast<runtime::StreamingEngine &>(*engine).shed_stats();
    EXPECT_EQ(shed.submitted, n);
    EXPECT_EQ(shed.completed + shed.shed, shed.submitted);
    EXPECT_EQ(record.subframes.size(), shed.completed);

    const MacStats stats = sched.stats();
    EXPECT_GT(stats.offered_tbs, 0u);
    EXPECT_TRUE(stats.conserved())
        << "offered " << stats.offered_tbs << " != delivered "
        << stats.delivered_tbs << " + residual " << stats.residual_tbs;
}

// scripts/check.sh and CI sweep LTE_MAC=rr|pf|edf over this binary
// (plus one LTE_MAC_IO=offload leg): the env-selected policy drives a
// real streaming-engine closed loop end to end, with grants drawn on
// the sample-plane producer thread on the offloaded leg.
TEST(StreamingMacClosedLoop, EnvSelectedPolicySweepConserves)
{
    SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;
    if (const char *env = std::getenv("LTE_MAC"))
        policy = parse_scheduler_policy(env);
    const bool offload = std::getenv("LTE_MAC_IO") != nullptr;

    MacConfig mc = small_config(policy);
    mc.arrival_rate = 5.0;
    MacScheduler sched(mc);
    GrantModel model(sched);

    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    cfg.input.pool_size = 2;
    cfg.max_in_flight = 2;
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.05;
    cfg.deadline_ms = 2.0;
    cfg.shed_policy = runtime::ShedPolicy::kDropOldest;
    if (offload) {
        cfg.io.enabled = true;
        cfg.io.n_frames = 4;
    }
    cfg.feedback = &sched;
    auto engine = runtime::make_engine(cfg);

    const std::size_t n = 200;
    const runtime::RunRecord record = engine->run(model, n);
    sched.finalize();

    const auto &shed =
        dynamic_cast<runtime::StreamingEngine &>(*engine).shed_stats();
    EXPECT_EQ(shed.submitted, n);
    EXPECT_EQ(shed.completed + shed.shed, shed.submitted);
    EXPECT_EQ(record.subframes.size(), shed.completed);

    const MacStats stats = sched.stats();
    EXPECT_EQ(sched.config().policy, policy);
    EXPECT_GT(stats.offered_tbs, 0u);
    EXPECT_TRUE(stats.conserved())
        << scheduler_policy_name(policy) << ": offered "
        << stats.offered_tbs << " != delivered " << stats.delivered_tbs
        << " + residual " << stats.residual_tbs;
}

// ----------------------------------------------------------- overlay

TEST(MacPinned, PinnedGrantsAreBitIdenticalToSeedEngines)
{
    const std::size_t n = 25;

    runtime::EngineConfig ref_cfg;
    ref_cfg.kind = runtime::EngineKind::kStreaming;
    ref_cfg.pool.n_workers = 4;
    ref_cfg.input.pool_size = 4;
    ref_cfg.input.seed = 77;
    auto reference = runtime::make_engine(ref_cfg);
    workload::PaperModel ref_model(paper_config(77));
    const runtime::RunRecord ref = reference->run(ref_model, n);

    // Same engine + same random model, with the MAC attached only as
    // the feedback sink: the PHY must not see any difference, and the
    // MAC, whose grant path idles, must not issue anything.  Every
    // outcome lands unmatched and is merely counted, so the closed
    // loop is a pure overlay on the benchmark.
    MacScheduler sched(small_config());
    workload::PaperModel model(paper_config(77));
    runtime::EngineConfig cfg = ref_cfg;
    cfg.feedback = &sched;
    auto engine = runtime::make_engine(cfg);
    const runtime::RunRecord record = engine->run(model, n);

    std::string why;
    EXPECT_TRUE(runtime::RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());
    ASSERT_GT(ref.user_count(), 0u);

    sched.finalize();
    const MacStats stats = sched.stats();
    EXPECT_EQ(stats.offered_tbs, 0u);
    EXPECT_EQ(stats.grants, 0u);
    EXPECT_GT(stats.unmatched_feedback, 0u);
    EXPECT_TRUE(stats.conserved());
}

/** FNV-1a over the eight bytes of @p v, little-endian. */
void
fnv_mix(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
}

/** What one scripted 2000-TTI run of small_config(policy) produced. */
struct ScriptedRun
{
    std::uint64_t digest = 0;
    /** Blocks retired by the retransmission budget (before finalize). */
    std::uint64_t budget_residual = 0;
    MacStats stats;
};

/**
 * Drive 2000 TTIs with feedback two TTIs late: every 13th subframe is
 * shed, every 17th gets no feedback (the timeout sweep resolves it),
 * and the rest answer with a per-user mix of modelled and real CRC
 * verdicts.  UEs with id % 5 == 0 always report a real NACK, so their
 * blocks exhaust the retransmission budget.  The digest covers every
 * grant (ue, prb, layers, mod, retx) and the final MacStats.
 */
ScriptedRun
run_scripted(SchedulerPolicy policy)
{
    constexpr std::size_t kFeedbackDelay = 2;
    MacScheduler sched(small_config(policy));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::deque<phy::SubframeParams> in_flight;
    phy::SubframeParams sf;
    for (std::size_t t = 0; t < 2000; ++t) {
        const std::uint64_t retx_before = sched.stats().retx_grants;
        sched.next_tti_into(sf);
        // Retransmissions are granted ahead of new data.
        const std::uint64_t n_retx = sched.stats().retx_grants - retx_before;
        fnv_mix(h, sf.subframe_index);
        fnv_mix(h, sf.users.size());
        for (std::size_t u = 0; u < sf.users.size(); ++u) {
            const phy::UserParams &user = sf.users[u];
            fnv_mix(h, user.id);
            fnv_mix(h, user.prb);
            fnv_mix(h, user.layers);
            fnv_mix(h, static_cast<std::uint64_t>(user.mod));
            fnv_mix(h, u < n_retx ? 1 : 0);
        }
        in_flight.push_back(sf);
        if (in_flight.size() <= kFeedbackDelay)
            continue;
        const phy::SubframeParams done = in_flight.front();
        in_flight.pop_front();
        const std::uint64_t i = done.subframe_index;
        if (i % 13 == 7) {
            sched.on_subframe_shed(done.cell_id, i);
            continue;
        }
        if (i % 17 == 3)
            continue;
        runtime::SubframeOutcome outcome;
        outcome.subframe_index = i;
        outcome.cell_id = done.cell_id;
        for (const phy::UserParams &user : done.users) {
            runtime::UserOutcome u;
            u.user_id = user.id;
            u.crc_modelled = user.id % 5 != 0 && (user.id + i) % 2 == 0;
            u.crc_ok = user.id % 5 != 0 && i % 4 != 0;
            u.evm_rms = 0.05f + 0.01f * static_cast<float>(user.id % 7);
            outcome.users.push_back(u);
        }
        sched.on_subframe_complete(outcome, phy::DegradeLevel::kNone);
    }
    ScriptedRun run;
    run.budget_residual = sched.stats().residual_tbs;
    sched.finalize();
    run.stats = sched.stats();
    const MacStats &s = run.stats;
    for (std::uint64_t v :
         {s.ttis, s.grants, s.retx_grants, s.offered_tbs, s.offered_bits,
          s.delivered_tbs, s.delivered_bits, s.residual_tbs,
          s.residual_bits, s.acks, s.nacks, s.real_feedback,
          s.modelled_feedback, s.unmatched_feedback, s.shed_ttis,
          s.timeout_grants, s.packets_arrived, s.arrived_bits,
          s.deadline_drops, s.overflow_drops, s.dropped_bits}) {
        fnv_mix(h, v);
    }
    run.digest = h;
    return run;
}

TEST(MacPinned, GrantSequenceDigestPerPolicy)
{
    // Pins every grant and counter of the scripted loop, so a changed
    // MAC tuning value (HARQ budget, grant timeout, OLLA, CQI filter,
    // PF window, channel model) fails here even though two runs of the
    // same build would still agree.
    const std::pair<SchedulerPolicy, std::uint64_t> pins[] = {
        {SchedulerPolicy::kRoundRobin, 0x7379db4a502600deULL},
        {SchedulerPolicy::kProportionalFair, 0xf1dd0e445d6400e4ULL},
        {SchedulerPolicy::kDeadlineEdf, 0xc41baaa2174163fcULL},
    };
    for (const auto &[policy, pin] : pins) {
        const ScriptedRun run = run_scripted(policy);
        const char *name = scheduler_policy_name(policy);
        EXPECT_EQ(run.digest, pin)
            << name << ": 0x" << std::hex << run.digest;
        EXPECT_GT(run.stats.timeout_grants, 0u) << name;
        EXPECT_GT(run.stats.retx_grants, 0u) << name;
        EXPECT_GT(run.stats.residual_tbs, 0u) << name;
        EXPECT_GT(run.budget_residual, 0u) << name;
        EXPECT_TRUE(run.stats.conserved()) << name;
    }
}

TEST(MacArrivalScale, ScaleModulatesOfferedTraffic)
{
    MacScheduler sched(small_config());
    EXPECT_THROW(sched.set_arrival_scale(-0.5), std::invalid_argument);
    EXPECT_DOUBLE_EQ(sched.arrival_scale(), 1.0);

    // Scale 0 stops the arrival process entirely.
    MacScheduler idle(small_config());
    idle.set_arrival_scale(0.0);
    run_modelled_loop(idle, 200);
    EXPECT_EQ(idle.stats().packets_arrived, 0u);

    // Higher scale offers proportionally more traffic.
    MacScheduler heavy(small_config());
    heavy.set_arrival_scale(3.0);
    run_modelled_loop(heavy, 200);
    MacScheduler light(small_config());
    run_modelled_loop(light, 200);
    EXPECT_GT(heavy.stats().packets_arrived,
              light.stats().packets_arrived);
}

TEST(MacConfigValidate, RejectsBadConfigs)
{
    MacConfig cfg = small_config();
    cfg.n_ues = 0;
    EXPECT_THROW(MacScheduler{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.fixed_mcs = kNumMcs;
    EXPECT_THROW(MacScheduler{cfg}, std::invalid_argument);
    EXPECT_EQ(parse_scheduler_policy("pf"),
              SchedulerPolicy::kProportionalFair);
    EXPECT_THROW(parse_scheduler_policy("bogus"), std::invalid_argument);
}

} // namespace
} // namespace lte::mac
