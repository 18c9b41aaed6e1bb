/**
 * @file
 * Discrete-event TILEPro64 model tests: time conservation, task
 * accounting, strategy-dependent core states, calibration, linearity
 * of steady-state activity in PRBs (the mechanism behind Fig. 11),
 * IDLE pickup latency, and determinism.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "phy/op_model.hpp"
#include "sim/calibrate.hpp"
#include "sim/machine.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace lte::sim {
namespace {

SimConfig
calibrated_config()
{
    SimConfig cfg;
    cfg.cycles_per_op = calibrate_cycles_per_op(cfg);
    return cfg;
}

phy::UserParams
user(std::uint32_t prb, std::uint32_t layers, Modulation mod)
{
    phy::UserParams u;
    u.prb = prb;
    u.layers = layers;
    u.mod = mod;
    return u;
}

mgmt::WorkloadEstimator
quick_estimator(const SimConfig &cfg)
{
    CalibrationSweep sweep;
    sweep.prb_step = 66; // 2, 68, 134, 200
    sweep.duration_s = 0.1;
    return mgmt::WorkloadEstimator(calibrate_table(cfg, sweep));
}

TEST(Machine, TimeIsConservedPerInterval)
{
    SimConfig cfg = calibrated_config();
    workload::SteadyModel model(user(40, 2, Modulation::k16Qam));
    Machine machine(cfg);
    const SimResult result = machine.run(model, 50);
    for (const auto &iv : result.intervals) {
        const double total = iv.busy_cs + iv.spin_cs + iv.nap_idle_cs +
                             iv.nap_deact_cs;
        EXPECT_NEAR(total, cfg.n_workers * iv.dur, 1e-6)
            << "at t0=" << iv.t0;
    }
}

TEST(Machine, ExecutesExactTaskCount)
{
    SimConfig cfg = calibrated_config();
    const phy::UserParams u = user(20, 2, Modulation::kQpsk);
    workload::SteadyModel model(u);
    Machine machine(cfg);
    const SimResult result = machine.run(model, 10);
    // Per user: 4*2 chanest + 1 weights + 6*2 demod, then the
    // continuation-graph tail: one task per codeblock plus the reduce.
    const std::uint64_t n_tail =
        phy::user_task_costs(u, 4).n_tail_tasks;
    EXPECT_EQ(result.tasks_executed, 10u * (21u + n_tail + 1u));
    EXPECT_EQ(result.subframes, 10u);
}

TEST(Machine, SplitTailConservesWorkAndAddsTasks)
{
    // The per-codeblock tail fan-out plus its reduce must charge
    // exactly the op model's work (tail == tail_task * n + reduce):
    // total busy time equals the user's total ops at cycles/op over
    // the clock, however the tasks were scheduled.  The task count is
    // pinned by ExecutesExactTaskCount.
    const phy::UserParams u = user(100, 4, Modulation::k64Qam);
    SimConfig cfg = calibrated_config();
    workload::SteadyModel model(u);
    Machine machine(cfg);
    const std::uint64_t n = 20;
    const SimResult result = machine.run(model, n);
    double busy = 0.0;
    for (const auto &iv : result.intervals)
        busy += iv.busy_cs;
    const double expected =
        static_cast<double>(n) *
        static_cast<double>(phy::user_task_costs(u, 4).total()) *
        cfg.cycles_per_op / kClockHz;
    EXPECT_NEAR(busy, expected, 1e-6 * expected);
}

TEST(Machine, NoNapUsesOnlySpinAndBusy)
{
    SimConfig cfg = calibrated_config();
    cfg.policy = mgmt::PowerPolicy::nonap();
    workload::SteadyModel model(user(30, 1, Modulation::kQpsk));
    Machine machine(cfg);
    const SimResult result = machine.run(model, 40);
    for (const auto &iv : result.intervals) {
        EXPECT_EQ(iv.nap_idle_cs, 0.0);
        EXPECT_EQ(iv.nap_deact_cs, 0.0);
        EXPECT_GT(iv.spin_cs, 0.0);
    }
}

TEST(Machine, IdleStrategyNapsInsteadOfSpinning)
{
    SimConfig cfg = calibrated_config();
    cfg.policy = mgmt::PowerPolicy::idle();
    workload::SteadyModel model(user(30, 1, Modulation::kQpsk));
    Machine machine(cfg);
    const SimResult result = machine.run(model, 40);
    double spin = 0.0, nap = 0.0;
    for (const auto &iv : result.intervals) {
        spin += iv.spin_cs;
        nap += iv.nap_idle_cs;
    }
    EXPECT_EQ(spin, 0.0);
    EXPECT_GT(nap, 0.0);
}

TEST(Machine, NapStrategyDeactivatesCoresAtLowLoad)
{
    SimConfig cfg = calibrated_config();
    cfg.policy = mgmt::PowerPolicy::nap();
    Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(user(2, 1, Modulation::kQpsk));
    const SimResult result = machine.run(model, 40);

    double deact = 0.0, total = 0.0;
    for (const auto &iv : result.intervals) {
        deact += iv.nap_deact_cs;
        total += static_cast<double>(cfg.n_workers) * iv.dur;
        // Tiny workload: watermark should be close to the margin.
        EXPECT_LE(iv.watermark, 5u);
        EXPECT_GE(iv.watermark, 2u);
    }
    // Most of the chip is deactivated.
    EXPECT_GT(deact / total, 0.85);
}

TEST(Machine, WorkStillCompletesUnderNap)
{
    SimConfig cfg = calibrated_config();
    cfg.policy = mgmt::PowerPolicy::nap_idle();
    Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::PaperModelConfig mc;
    mc.ramp_subframes = 50;
    mc.prob_update_interval = 5;
    workload::PaperModel model(mc);
    const SimResult result = machine.run(model, 100);
    EXPECT_EQ(result.subframes, 100u);
    EXPECT_GT(result.tasks_executed, 0u);
    // All work drained: last intervals have no busy time left over
    // compared with dispatch intervals. Just check the run ended near
    // the nominal horizon (no runaway backlog).
    EXPECT_LT(result.wall_s, 100 * cfg.delta_s * 1.5);
}

TEST(Machine, ActivityGrowsWithPrbs)
{
    SimConfig cfg = calibrated_config();
    double prev = 0.0;
    for (std::uint32_t prb : {10u, 50u, 100u, 150u}) {
        const double activity = steady_state_activity(
            cfg, user(prb, 2, Modulation::k16Qam), 4, 0.2);
        EXPECT_GT(activity, prev) << "prb=" << prb;
        prev = activity;
    }
}

TEST(Machine, SteadyActivityIsLinearInPrbs)
{
    // The paper's central calibration observation (Fig. 11): activity
    // is linear in PRBs for a fixed (layers, modulation).
    SimConfig cfg = calibrated_config();
    const double a50 = steady_state_activity(
        cfg, user(50, 2, Modulation::k64Qam), 4, 0.3);
    const double a100 = steady_state_activity(
        cfg, user(100, 2, Modulation::k64Qam), 4, 0.3);
    const double a200 = steady_state_activity(
        cfg, user(200, 2, Modulation::k64Qam), 4, 0.3);
    EXPECT_NEAR(a100 / a50, 2.0, 0.25);
    EXPECT_NEAR(a200 / a100, 2.0, 0.25);
}

TEST(Machine, CalibrationSaturatesAtPeakLoad)
{
    // cycles_per_op is chosen so the peak paper workload runs the
    // machine at ~100% activity.
    SimConfig cfg = calibrated_config();
    const double activity = steady_state_activity(
        cfg, user(200, 4, Modulation::k64Qam), 4, 0.5);
    EXPECT_GT(activity, 0.85);
    EXPECT_LT(activity, 1.01);
}

TEST(Machine, MoreLayersMeanMoreActivity)
{
    SimConfig cfg = calibrated_config();
    double prev = 0.0;
    for (std::uint32_t layers = 1; layers <= 4; ++layers) {
        const double activity = steady_state_activity(
            cfg, user(60, layers, Modulation::k16Qam), 4, 0.2);
        EXPECT_GT(activity, prev) << "layers=" << layers;
        prev = activity;
    }
}

TEST(Machine, IdlePickupLatencyDelaysCompletion)
{
    // Reactive napping adds wake latency: the same workload finishes
    // no earlier (and typically later) under IDLE than under NONAP.
    SimConfig nonap = calibrated_config();
    nonap.policy = mgmt::PowerPolicy::nonap();
    SimConfig idle = nonap;
    idle.policy = mgmt::PowerPolicy::idle();
    idle.idle_wake_period_s = 1e-3; // exaggerate for visibility

    workload::SteadyModel m1(user(100, 4, Modulation::k64Qam));
    workload::SteadyModel m2(user(100, 4, Modulation::k64Qam));
    Machine a(nonap), b(idle);
    const double busy_a = a.run(m1, 20).total_busy_cs;
    const double busy_b = b.run(m2, 20).total_busy_cs;
    // Same work content executes in both cases.
    EXPECT_NEAR(busy_a, busy_b, busy_a * 1e-6);
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto once = [] {
        SimConfig cfg = calibrated_config();
        cfg.policy = mgmt::PowerPolicy::nap_idle();
        Machine machine(cfg);
        machine.set_estimator(quick_estimator(cfg));
        workload::PaperModelConfig mc;
        mc.ramp_subframes = 40;
        mc.prob_update_interval = 4;
        workload::PaperModel model(mc);
        return machine.run(model, 80);
    };
    const SimResult a = once();
    const SimResult b = once();
    EXPECT_EQ(a.tasks_executed, b.tasks_executed);
    EXPECT_DOUBLE_EQ(a.total_busy_cs, b.total_busy_cs);
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.intervals[i].busy_cs, b.intervals[i].busy_cs);
        EXPECT_EQ(a.intervals[i].watermark, b.intervals[i].watermark);
    }
}

TEST(Machine, RejectsBadConfig)
{
    SimConfig cfg;
    cfg.n_workers = 0;
    workload::SteadyModel model(user(10, 1, Modulation::kQpsk));
    EXPECT_THROW(Machine machine(cfg), std::invalid_argument);

    SimConfig ok;
    Machine machine(ok);
    EXPECT_THROW(machine.run(model, 0), std::invalid_argument);
}

} // namespace
} // namespace lte::sim
