/**
 * @file
 * Tests for the latency accounting and the DVFS extension of the
 * simulator and power model.
 */
#include <gtest/gtest.h>

#include "core/uplink_study.hpp"
#include "sim/calibrate.hpp"
#include "sim/machine.hpp"
#include "workload/steady_model.hpp"

namespace lte {
namespace {

sim::SimConfig
calibrated()
{
    sim::SimConfig cfg;
    cfg.cycles_per_op = sim::calibrate_cycles_per_op(cfg);
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
quick_estimator(const sim::SimConfig &cfg)
{
    sim::CalibrationSweep sweep;
    sweep.prb_step = 66;
    sweep.duration_s = 0.1;
    return mgmt::WorkloadEstimator(sim::calibrate_table(cfg, sweep));
}

// ------------------------------------------------------ latency

TEST(Latency, OneRecordPerUser)
{
    sim::SimConfig cfg = calibrated();
    workload::SteadyModel model(user(20, 1, Modulation::kQpsk));
    sim::Machine machine(cfg);
    const auto result = machine.run(model, 25);
    EXPECT_EQ(result.user_latency.size(), 25u);
}

TEST(Latency, LightLoadCompletesWellUnderOnePeriod)
{
    sim::SimConfig cfg = calibrated();
    workload::SteadyModel model(user(10, 1, Modulation::kQpsk));
    sim::Machine machine(cfg);
    const auto result = machine.run(model, 40);
    EXPECT_LT(result.max_latency(), 1.0);
    EXPECT_DOUBLE_EQ(result.deadline_hit_rate(3.0), 1.0);
}

TEST(Latency, HeavyLoadTakesLongerThanLightLoad)
{
    sim::SimConfig cfg = calibrated();
    workload::SteadyModel light(user(10, 1, Modulation::kQpsk));
    workload::SteadyModel heavy(user(200, 4, Modulation::k64Qam));
    sim::Machine a(cfg), b(cfg);
    const double light_latency = a.run(light, 40).mean_latency();
    const double heavy_latency = b.run(heavy, 40).mean_latency();
    EXPECT_GT(heavy_latency, 2.0 * light_latency);
}

TEST(Latency, DeadlineHitRateBoundaries)
{
    sim::SimResult result;
    EXPECT_DOUBLE_EQ(result.deadline_hit_rate(1.0), 1.0);
    result.user_latency = {0.5, 1.5, 2.5, 10.0};
    EXPECT_DOUBLE_EQ(result.deadline_hit_rate(3.0), 0.75);
    EXPECT_DOUBLE_EQ(result.max_latency(), 10.0);
    EXPECT_DOUBLE_EQ(result.mean_latency(), (0.5 + 1.5 + 2.5 + 10.0) / 4);
}

// --------------------------------------------------------- DVFS

TEST(Dvfs, FrequencyTracksEstimatedLoad)
{
    sim::SimConfig cfg = calibrated();
    cfg.policy.dvfs = true;
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(user(20, 1, Modulation::kQpsk));
    const auto result = machine.run(model, 30);
    // A tiny workload must drive the clock toward the floor.
    ASSERT_GE(result.intervals.size(), 30u);
    for (std::size_t i = 1; i < 30; ++i) {
        EXPECT_LE(result.intervals[i].freq_scale, 0.5)
            << "i=" << i << " est=" << result.intervals[i].est_activity;
        EXPECT_GE(result.intervals[i].freq_scale, mgmt::kDvfsMinScale);
    }
}

TEST(Dvfs, FullLoadRunsAtFullClock)
{
    sim::SimConfig cfg = calibrated();
    cfg.policy.dvfs = true;
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(user(200, 4, Modulation::k64Qam));
    const auto result = machine.run(model, 30);
    for (std::size_t i = 1; i < 30; ++i)
        EXPECT_GT(result.intervals[i].freq_scale, 0.9);
}

TEST(Dvfs, ScalingStretchesBusyTimeButWorkCompletes)
{
    sim::SimConfig base = calibrated();
    sim::SimConfig dvfs = base;
    dvfs.policy.dvfs = true;

    workload::SteadyModel m1(user(30, 1, Modulation::kQpsk));
    workload::SteadyModel m2(user(30, 1, Modulation::kQpsk));
    sim::Machine a(base), b(dvfs);
    b.set_estimator(quick_estimator(dvfs));
    const auto fast = a.run(m1, 40);
    const auto slow = b.run(m2, 40);
    // Same number of tasks, more core-seconds at the lower clock.
    EXPECT_EQ(fast.tasks_executed, slow.tasks_executed);
    EXPECT_GT(slow.total_busy_cs, 1.5 * fast.total_busy_cs);
    EXPECT_EQ(slow.user_latency.size(), 40u);
}

TEST(Dvfs, PowerDropsSuperlinearlyAtLowLoad)
{
    // Busy power at scale s is s * V(s)^2 < s for s < 1.
    power::PowerModel pm;
    sim::SimInterval full;
    full.dur = 0.005;
    full.busy_cs = 31 * full.dur;
    full.spin_cs = 31 * full.dur;
    sim::SimInterval scaled = full;
    scaled.freq_scale = 0.5;
    // Same occupancy, half clock: active power falls by more than 2x.
    const double base = pm.config().base_power_w;
    const double p_full = pm.interval_power(full) - base;
    const double p_scaled = pm.interval_power(scaled) - base;
    EXPECT_LT(p_scaled, p_full / 2.0);
    EXPECT_GT(p_scaled, p_full / 6.0);
}

TEST(Dvfs, StudyVariantSavesPowerOnPaperModel)
{
    core::StudyConfig cfg;
    cfg.scale_to(1200);
    cfg.sweep.prb_step = 66;
    cfg.sweep.duration_s = 0.1;
    core::UplinkStudy study(cfg);
    study.prepare();
    const double nonap =
        study.run_policy(mgmt::PowerPolicy::nonap()).avg_power_w;

    mgmt::PowerPolicy dvfs = mgmt::PowerPolicy::nonap();
    dvfs.dvfs = true;
    const auto outcome = study.run_policy(dvfs);
    EXPECT_LT(outcome.avg_power_w, nonap - 1.0);
    // DVFS trades latency for power: around the workload peak the
    // headroom is consumed and completion stretches, but the system
    // must not run away (bounded mean latency, most users on time).
    EXPECT_LT(outcome.sim.mean_latency(), 10.0);
    EXPECT_GT(outcome.sim.deadline_hit_rate(3.0), 0.5);
}

TEST(Dvfs, RejectsBadConfig)
{
    power::PowerModelConfig pcfg;
    pcfg.dvfs_voltage_floor = 1.5;
    EXPECT_THROW(power::PowerModel pm(pcfg), std::invalid_argument);
}

} // namespace
} // namespace lte
