/**
 * @file
 * Power-management logic tests: calibration fitting (Eq. 3), subframe
 * estimation (Eq. 4), core allocation (Eq. 5), domain discretisation
 * (Eq. 6), and the gating provisioning window (Eq. 7).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "mgmt/core_allocator.hpp"
#include "mgmt/estimator.hpp"
#include "workload/paper_model.hpp"

namespace lte::mgmt {
namespace {

CalibrationTable
synthetic_table()
{
    // Slopes loosely shaped like the paper's Fig. 11: more layers and
    // denser modulation cost more per PRB.
    CalibrationTable table;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        table.set(l, Modulation::kQpsk, 0.0008 * l);
        table.set(l, Modulation::k16Qam, 0.0010 * l);
        table.set(l, Modulation::k64Qam, 0.0012 * l);
    }
    return table;
}

TEST(CalibrationTable, FitRecoversExactSlope)
{
    CalibrationTable table;
    std::vector<CalibrationSample> samples;
    for (std::uint32_t prb = 2; prb <= 200; prb += 2)
        samples.push_back({prb, 0.002 * prb});
    table.fit(2, Modulation::k16Qam, samples);
    EXPECT_NEAR(table.get(2, Modulation::k16Qam), 0.002, 1e-12);
}

TEST(CalibrationTable, FitAveragesNoise)
{
    CalibrationTable table;
    std::vector<CalibrationSample> samples;
    // Alternate +/- 10% noise around slope 0.001.
    for (std::uint32_t prb = 10; prb <= 200; prb += 10) {
        const double noise = (prb / 10) % 2 == 0 ? 1.1 : 0.9;
        samples.push_back({prb, 0.001 * prb * noise});
    }
    table.fit(1, Modulation::kQpsk, samples);
    EXPECT_NEAR(table.get(1, Modulation::kQpsk), 0.001, 1e-4);
}

TEST(CalibrationTable, CompleteOnlyWhenAllSlotsSet)
{
    CalibrationTable table;
    EXPECT_FALSE(table.complete());
    for (std::uint32_t l = 1; l <= 4; ++l) {
        for (Modulation mod : kAllModulations)
            table.set(l, mod, 0.001);
    }
    EXPECT_TRUE(table.complete());
}

TEST(CalibrationTable, RejectsBadInput)
{
    CalibrationTable table;
    EXPECT_THROW(table.set(0, Modulation::kQpsk, 0.1),
                 std::invalid_argument);
    EXPECT_THROW(table.set(5, Modulation::kQpsk, 0.1),
                 std::invalid_argument);
    EXPECT_THROW(table.set(1, Modulation::kQpsk, -0.1),
                 std::invalid_argument);
    EXPECT_THROW(table.fit(1, Modulation::kQpsk, {}),
                 std::invalid_argument);
}

TEST(WorkloadEstimator, UserEstimateIsLinearInPrbs)
{
    WorkloadEstimator est(synthetic_table());
    phy::UserParams user;
    user.layers = 2;
    user.mod = Modulation::k16Qam;
    user.prb = 50;
    const double e50 = est.estimate_user(user);
    user.prb = 100;
    EXPECT_NEAR(est.estimate_user(user), 2.0 * e50, 1e-12);
}

TEST(WorkloadEstimator, SubframeSumsUsersAndClamps)
{
    WorkloadEstimator est(synthetic_table());
    phy::SubframeParams sf;
    for (int i = 0; i < 3; ++i) {
        phy::UserParams u;
        u.prb = 60;
        u.layers = 1;
        u.mod = Modulation::kQpsk;
        sf.users.push_back(u);
    }
    EXPECT_NEAR(est.estimate_subframe(sf), 3 * 60 * 0.0008, 1e-9);

    // Saturation: ten maxed users exceed 1.0 and must clamp.
    sf.users.clear();
    for (int i = 0; i < 10; ++i) {
        phy::UserParams u;
        u.prb = 200;
        u.layers = 4;
        u.mod = Modulation::k64Qam;
        sf.users.push_back(u);
    }
    EXPECT_DOUBLE_EQ(est.estimate_subframe(sf), 1.0);
}

TEST(WorkloadEstimator, ActiveCoresEquation5)
{
    WorkloadEstimator est(synthetic_table());
    // activity * 62 + 2, ceiling, clamped.
    EXPECT_EQ(est.active_cores(0.0, 62), 2u);
    EXPECT_EQ(est.active_cores(0.5, 62), 33u);
    EXPECT_EQ(est.active_cores(1.0, 62), 62u);
    EXPECT_EQ(est.active_cores(0.985, 62), 62u); // clamped at max
    EXPECT_EQ(est.active_cores(0.1, 62, 0), 7u); // no margin
}

TEST(WorkloadEstimator, ActiveCoresNeverZero)
{
    // Regression: with margin == 0 and zero estimated activity the
    // raw Eq. 5 result is 0 cores, which would park every worker — a
    // napping core cannot be woken remotely, deadlocking the pool.
    // The floor must stay at one core.
    WorkloadEstimator est(synthetic_table());
    EXPECT_EQ(est.active_cores(0.0, 62, 0), 1u);
    EXPECT_EQ(est.active_cores(0.0, 1, 0), 1u);
    // Tiny but non-zero activity also rounds up to at least one.
    EXPECT_EQ(est.active_cores(1e-9, 62, 0), 1u);
    // The floor never exceeds the chip: margin > max_cores still
    // clamps to max_cores.
    EXPECT_EQ(est.active_cores(0.0, 4, 8), 4u);
}

TEST(WorkloadEstimator, DecisionStatsTallied)
{
    WorkloadEstimator est(synthetic_table());
    est.active_cores(0.0, 62, 0);  // clamped up to the floor
    est.active_cores(0.5, 62);     // in range
    est.active_cores(1.5, 62);     // clamped down to max_cores
    const EstimatorStats &stats = est.stats();
    EXPECT_EQ(stats.core_decisions, 3u);
    EXPECT_EQ(stats.clamped_low, 1u);
    EXPECT_EQ(stats.clamped_high, 1u);
    // Exactly at a bound is not a clamp: the margin floor met ...
    EXPECT_EQ(est.active_cores(0.0, 62, 2), 2u);
    EXPECT_EQ(stats.clamped_low, 1u);
    // ... and the floor and the ceiling met at once.
    EXPECT_EQ(est.active_cores(0.0, 4, 4), 4u);
    EXPECT_EQ(stats.clamped_low, 1u);
    EXPECT_EQ(stats.clamped_high, 1u);
    EXPECT_EQ(stats.core_decisions, 5u);
    est.reset_stats();
    EXPECT_EQ(est.stats().core_decisions, 0u);
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

TEST(EstimatorPinned, EstimateDigestPerLevelAndBacklog)
{
    // Pins every bit of Eqs. 3-4 at each shed-ladder level and backlog,
    // with and without real-turbo pricing, and the decision tallies
    // they leave behind.  A fast ramp walks the draws through every
    // layer count and modulation within 200 subframes; slopes three
    // times synthetic_table()'s make the busiest subframes saturate.
    CalibrationTable table;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        for (Modulation mod : kAllModulations)
            table.set(l, mod, 3.0 * synthetic_table().get(l, mod));
    }
    const phy::DegradeLevel levels[] = {
        phy::DegradeLevel::kNone, phy::DegradeLevel::kReducedIterations,
        phy::DegradeLevel::kBypass};
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const bool real_turbo : {false, true}) {
        WorkloadEstimator est(table);
        est.set_real_turbo(real_turbo);
        workload::PaperModelConfig mcfg;
        mcfg.ramp_subframes = 100;
        mcfg.prob_update_interval = 10;
        mcfg.seed = 2012;
        workload::PaperModel model(mcfg);
        for (int s = 0; s < 200; ++s) {
            const phy::SubframeParams sf = model.next_subframe();
            fnv_mix(h, std::bit_cast<std::uint64_t>(est.estimate_subframe(sf)));
            for (const std::size_t backlog : {0u, 1u, 3u}) {
                fnv_mix(h, std::bit_cast<std::uint64_t>(
                               est.estimate_subframe(sf, backlog)));
                for (const phy::DegradeLevel level : levels) {
                    fnv_mix(h, std::bit_cast<std::uint64_t>(
                                   est.estimate_subframe(sf, backlog,
                                                         level)));
                }
            }
            for (const phy::UserParams &user : sf.users) {
                fnv_mix(h,
                        std::bit_cast<std::uint64_t>(est.estimate_user(user)));
                for (const phy::DegradeLevel level : levels) {
                    fnv_mix(h, std::bit_cast<std::uint64_t>(
                                   est.estimate_user(user, level)));
                }
            }
        }
        const EstimatorStats &st = est.stats();
        EXPECT_GT(st.saturated_estimates, 0u) << real_turbo;
        EXPECT_GT(st.backlog_boosts, 0u) << real_turbo;
        EXPECT_EQ(st.degraded_estimates, 2u * 3u * 200u) << real_turbo;
        for (const std::uint64_t v :
             {st.subframe_estimates, st.saturated_estimates,
              st.core_decisions, st.clamped_low, st.clamped_high,
              st.backlog_boosts, st.degraded_estimates}) {
            fnv_mix(h, v);
        }
    }
    EXPECT_EQ(h, 0xe5986df2872a65c6ULL) << "0x" << std::hex << h;
}

TEST(Discretise, Equation6)
{
    EXPECT_EQ(discretise_to_domains(0, 8, 64), 0u);
    EXPECT_EQ(discretise_to_domains(1, 8, 64), 8u);
    EXPECT_EQ(discretise_to_domains(8, 8, 64), 8u);
    EXPECT_EQ(discretise_to_domains(9, 8, 64), 16u);
    EXPECT_EQ(discretise_to_domains(62, 8, 64), 64u);
    EXPECT_EQ(discretise_to_domains(100, 8, 64), 64u);
}

TEST(GatingPlanner, StatsCountSwitches)
{
    // Discretised: 8 everywhere but 16 at index 6; the Eq. 7 window
    // powers 16 over indices 4..8 — two switch events of one domain.
    GatingStats stats;
    const std::vector<std::uint32_t> decisions = gating_plan(
        {4, 4, 4, 4, 4, 4, 12, 4, 4, 4, 4, 4}, 8, 64, &stats);
    const std::vector<std::uint32_t> expected = {8,  8,  8,  8,  16, 16,
                                                 16, 16, 16, 8,  8,  8};
    EXPECT_EQ(decisions, expected);
    EXPECT_EQ(stats.decisions, 12u);
    EXPECT_EQ(stats.switch_events, 2u);
    EXPECT_EQ(stats.domains_switched, 2u);
    EXPECT_EQ(stats.peak_powered, 16u);
}

TEST(GatingPlanner, WindowMaximumEquation7)
{
    // Demands (already in cores, pre-discretisation): a single spike.
    const std::vector<std::uint32_t> decisions =
        gating_plan({4, 4, 4, 20, 4, 4, 4, 4}, 8, 64);

    ASSERT_EQ(decisions.size(), 8u);
    // The spike (24 cores discretised) must cover i-2..i+2 around it.
    // Demands discretise to 8 except index 3 -> 24.
    const std::vector<std::uint32_t> expected = {8, 24, 24, 24, 24, 24,
                                                 8, 8};
    EXPECT_EQ(decisions, expected);
}

TEST(GatingPlanner, ConstantDemandIsConstant)
{
    const std::vector<std::uint32_t> decisions =
        gating_plan(std::vector<std::uint32_t>(20, 30), 8, 64);
    ASSERT_EQ(decisions.size(), 20u);
    for (std::uint32_t p : decisions)
        EXPECT_EQ(p, 32u);
}

TEST(GatingPlanner, EmitsExactlyOneDecisionPerSubframe)
{
    std::vector<std::uint32_t> demands;
    for (int i = 0; i < 100; ++i)
        demands.push_back(static_cast<std::uint32_t>(i % 40));
    GatingStats stats;
    EXPECT_EQ(gating_plan(demands, 8, 64, &stats).size(), 100u);
    EXPECT_EQ(stats.decisions, 100u);
}

} // namespace
} // namespace lte::mgmt
