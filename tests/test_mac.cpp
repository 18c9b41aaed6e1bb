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
#include <string>
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
    MacConfig cfg = small_config();
    cfg.max_harq_retx = 2;
    MacScheduler sched(cfg);
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

TEST(CrcProvenance, BypassSamplingKeepsRealCrcForSampledUsers)
{
    // decode_sample_rate keeps a deterministic per-(subframe, user)
    // fraction of a shed subframe at the reduced-iteration real
    // decode, so the MAC's online BLER calibration still gets ground
    // truth while the rest of the subframe rides the bypass.
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kSerial;
    cfg.receiver.use_real_turbo = true;
    cfg.receiver.decode_sample_rate = 0.5;
    cfg.input.pool_size = 2;
    cfg.input.real_turbo = true;
    cfg.input.realistic = true;
    cfg.input.seed = 5;
    auto engine = runtime::make_engine(cfg);

    phy::SubframeParams params;
    params.subframe_index = 3;
    for (std::uint32_t id = 0; id < 6; ++id) {
        phy::UserParams user;
        user.id = id;
        user.prb = 8;
        user.layers = 1;
        user.mod = Modulation::kQpsk;
        params.users.push_back(user);
    }
    const auto signals = engine->input().signals_for(params);

    runtime::SubframeJob job;
    job.prepare(params, signals, cfg.receiver);
    job.set_degrade(phy::DegradeLevel::kBypass);
    std::size_t sampled_users = 0;
    for (std::size_t u = 0; u < job.n_users; ++u) {
        const bool sampled =
            runtime::SubframeJob::sample_hash(params.subframe_index,
                                              params.users[u].id) <
            cfg.receiver.decode_sample_rate;
        sampled_users += sampled;
        // A sampled user really decodes (real CRC); the rest are
        // hard-decided and must say their verdict is modelled.
        EXPECT_EQ(job.users[u]->proc.process_all().crc_modelled,
                  !sampled)
            << "user " << u;
    }
    EXPECT_GT(sampled_users, 0u);
    EXPECT_LT(sampled_users, job.n_users);
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
    mc.grant_timeout_ttis = 64;
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
    cfg.io.source = io::SourceKind::kGenerator;
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
    if (offload)
        mc.grant_timeout_ttis = 64;
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
        cfg.io.source = io::SourceKind::kGenerator;
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

// ------------------------------------------------------- pinned mode

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

    // Same engine + same random model, but routed through the MAC's
    // pinned GrantModel with live feedback: the PHY must not see any
    // difference, and the MAC must not issue anything.
    MacScheduler sched(small_config());
    workload::PaperModel inner(paper_config(77));
    GrantModel pinned(sched, inner);
    ASSERT_TRUE(pinned.pinned());
    runtime::EngineConfig cfg = ref_cfg;
    cfg.feedback = &sched;
    auto engine = runtime::make_engine(cfg);
    const runtime::RunRecord record = engine->run(pinned, n);

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

// ------------------------------------------------------------ router

TEST(MacRouter, RoutesFeedbackByCell)
{
    MacConfig c1 = small_config();
    c1.cell_id = 1;
    MacConfig c2 = small_config();
    c2.cell_id = 2;
    MacScheduler s1(c1);
    MacScheduler s2(c2);
    FeedbackRouter router;
    router.attach(1, s1);
    router.attach(2, s2);

    // Advance each cell to its first granting TTI (a Poisson stream
    // may open with empty arrivals).
    phy::SubframeParams sf1;
    phy::SubframeParams sf2;
    for (int t = 0; t < 50 && sf1.users.empty(); ++t)
        s1.next_tti_into(sf1);
    for (int t = 0; t < 50 && sf2.users.empty(); ++t)
        s2.next_tti_into(sf2);
    ASSERT_GT(sf1.users.size(), 0u);
    ASSERT_GT(sf2.users.size(), 0u);

    router.on_subframe_complete(feedback_for(sf1, false, true, 0.0f),
                                phy::DegradeLevel::kNone);
    router.on_subframe_shed(2, sf2.subframe_index);
    router.on_subframe_shed(7, 0); // nobody serves cell 7

    EXPECT_GT(s1.stats().modelled_feedback, 0u);
    EXPECT_EQ(s1.stats().shed_ttis, 0u);
    EXPECT_EQ(s2.stats().shed_ttis, 1u);
    EXPECT_EQ(router.unrouted(), 1u);
}

// ------------------------------------------- online BLER calibration

TEST(MacBlerCalibration, GapConvergesTowardObservedBias)
{
    MacConfig cfg = small_config();
    cfg.calibrate_bler = true;
    cfg.bler_gap_alpha = 0.08;
    MacScheduler sched(cfg);
    phy::SubframeParams sf;
    // Real-CRC feedback that always fails: the logistic predictor is
    // optimistic by construction here, so the EWMA gap must climb
    // toward the observed bias (near 1 once OLLA has backed off).
    for (std::size_t t = 0; t < 800; ++t) {
        sched.next_tti_into(sf);
        if (!sf.users.empty())
            sched.on_subframe_complete(
                feedback_for(sf, false, false, 0.05f),
                phy::DegradeLevel::kNone);
    }
    EXPECT_GT(sched.bler_gap(), 0.5);
    EXPECT_LE(sched.bler_gap(), 1.0);

    // Mirror image: flawless real decodes drive the gap negative
    // (observed 0 minus a strictly positive prediction).
    MacScheduler clean(cfg);
    for (std::size_t t = 0; t < 800; ++t) {
        clean.next_tti_into(sf);
        if (!sf.users.empty())
            clean.on_subframe_complete(
                feedback_for(sf, true, false, 0.05f),
                phy::DegradeLevel::kNone);
    }
    EXPECT_LT(clean.bler_gap(), 0.0);
    EXPECT_GE(clean.bler_gap(), -1.0);
}

TEST(MacBlerCalibration, GapShiftsModelledDraws)
{
    MacConfig cfg = small_config();
    cfg.calibrate_bler = true;
    cfg.bler_gap_alpha = 0.1;
    MacScheduler sched(cfg);
    phy::SubframeParams sf;
    // Phase 1: load a large positive gap from failing real decodes.
    for (std::size_t t = 0; t < 400; ++t) {
        sched.next_tti_into(sf);
        if (!sf.users.empty())
            sched.on_subframe_complete(
                feedback_for(sf, false, false, 0.05f),
                phy::DegradeLevel::kNone);
    }
    ASSERT_GT(sched.bler_gap(), 0.5);
    // Phase 2: modelled feedback only (the gap is frozen).  The
    // corrected draw p + gap must NACK far more often than the
    // uncorrected OLLA steady state (~target_bler) would.
    const MacStats before = sched.stats();
    for (std::size_t t = 0; t < 400; ++t) {
        sched.next_tti_into(sf);
        if (!sf.users.empty())
            sched.on_subframe_complete(
                feedback_for(sf, false, true, 0.0f),
                phy::DegradeLevel::kNone);
    }
    const MacStats after = sched.stats();
    const auto acks = after.acks - before.acks;
    const auto nacks = after.nacks - before.nacks;
    ASSERT_GT(acks + nacks, 100u);
    EXPECT_GT(static_cast<double>(nacks) /
                  static_cast<double>(acks + nacks),
              0.5);
}

TEST(MacBlerCalibration, ZeroGapKeepsDrawsBitIdentical)
{
    // With the knob on but no real feedback the gap stays 0 and the
    // modelled draw consumes the RNG exactly as the legacy path —
    // grant sequences must stay bit-identical to a knob-off twin.
    MacConfig on = small_config();
    on.calibrate_bler = true;
    MacScheduler a(on);
    MacScheduler b(small_config());
    phy::SubframeParams sa;
    phy::SubframeParams sb;
    for (std::size_t t = 0; t < 300; ++t) {
        a.next_tti_into(sa);
        b.next_tti_into(sb);
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
    EXPECT_EQ(a.stats().nacks, b.stats().nacks);
    EXPECT_DOUBLE_EQ(a.bler_gap(), 0.0);
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
    cfg = small_config();
    cfg.target_bler = 1.5;
    EXPECT_THROW(MacScheduler{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.bler_gap_alpha = 0.0;
    EXPECT_THROW(MacScheduler{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.bler_gap_alpha = 1.5;
    EXPECT_THROW(MacScheduler{cfg}, std::invalid_argument);
    EXPECT_EQ(parse_scheduler_policy("pf"),
              SchedulerPolicy::kProportionalFair);
    EXPECT_THROW(parse_scheduler_policy("bogus"), std::invalid_argument);
}

} // namespace
} // namespace lte::mac
