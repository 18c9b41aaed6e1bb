/**
 * @file
 * Power-model tests: state power ordering, interval arithmetic,
 * thermal feedback behaviour, the power-gating overlay (Eqs. 8-9),
 * and series helpers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "power/power_model.hpp"

namespace lte::power {
namespace {

sim::SimInterval
interval(double busy, double spin, double nap_idle, double nap_deact,
         double dur = 0.005)
{
    sim::SimInterval iv;
    iv.dur = dur;
    iv.busy_cs = busy * dur;
    iv.spin_cs = spin * dur;
    iv.nap_idle_cs = nap_idle * dur;
    iv.nap_deact_cs = nap_deact * dur;
    return iv;
}

sim::SimResult
constant_result(const sim::SimInterval &iv, std::size_t n)
{
    sim::SimResult result;
    result.n_workers = 62;
    for (std::size_t i = 0; i < n; ++i) {
        auto copy = iv;
        copy.t0 = static_cast<double>(i) * iv.dur;
        result.intervals.push_back(copy);
    }
    return result;
}

TEST(PowerModel, AllNapIsNearBasePower)
{
    PowerModel pm;
    const double p = pm.interval_power(interval(0, 0, 0, 62));
    EXPECT_GT(p, pm.config().base_power_w);
    EXPECT_LT(p, pm.config().base_power_w + 3.0);
}

TEST(PowerModel, StateOrdering)
{
    PowerModel pm;
    const double busy = pm.interval_power(interval(62, 0, 0, 0));
    const double spin = pm.interval_power(interval(0, 62, 0, 0));
    const double nap_idle = pm.interval_power(interval(0, 0, 62, 0));
    const double nap_deact = pm.interval_power(interval(0, 0, 0, 62));
    // A spinning core's tight poll loop keeps the issue slots as busy
    // as real work (the calibrated default sets them equal).
    EXPECT_GE(busy, spin);
    EXPECT_GT(spin, nap_idle);
    EXPECT_GT(nap_idle, nap_deact);
}

TEST(PowerModel, FullChipPowerMatchesPaperBallpark)
{
    // 62 cores busy/spinning should land near the paper's ~25 W NONAP.
    PowerModel pm;
    const double p = pm.interval_power(interval(31, 31, 0, 0));
    EXPECT_GT(p, 23.0);
    EXPECT_LT(p, 27.0);
}

TEST(PowerModel, PowerScalesWithBusyCores)
{
    PowerModel pm;
    double prev = 0.0;
    for (double busy : {0.0, 10.0, 30.0, 62.0}) {
        const double p =
            pm.interval_power(interval(busy, 0, 0, 62.0 - busy));
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(PowerModel, ThermalFeedbackRaisesSustainedHighPower)
{
    PowerModelConfig cfg;
    cfg.thermal_tau_s = 1.0; // fast for the test
    PowerModel pm(cfg);
    // 200 intervals x 5 ms = 1 s at full burn.
    const auto result = constant_result(interval(62, 0, 0, 0), 2000);
    const auto series = pm.power_series(result);
    ASSERT_EQ(series.size(), 2000u);
    // Later samples must be hotter than the first (leakage).
    EXPECT_GT(series.back().watts, series.front().watts + 0.3);
    // And the effect saturates (first-order).
    EXPECT_NEAR(series[1500].watts, series.back().watts, 0.1);
}

TEST(PowerModel, ThermalFeedbackLowersSustainedLowPower)
{
    PowerModelConfig cfg;
    cfg.thermal_tau_s = 1.0;
    PowerModel pm(cfg);
    const auto result = constant_result(interval(0, 0, 0, 62), 2000);
    const auto series = pm.power_series(result);
    // Cool chip: leakage correction is negative w.r.t. reference.
    EXPECT_LT(series.back().watts, cfg.base_power_w + 2.0);
}

TEST(PowerModel, GatingSavesStaticPower)
{
    PowerModel pm;
    const auto result = constant_result(interval(2, 0, 0, 60), 100);
    std::vector<std::uint32_t> powered(100, 8); // 56 cores gated
    const auto gated = pm.power_series_gated(result, powered);
    const auto ungated = pm.power_series(result);
    // Constant plan after the first switch: saving = 56 * 0.055 W
    // before thermal feedback; the cooler gated chip leaks a little
    // less on top of that.
    const double expected_saving = 56 * pm.config().core_static_w;
    const double diff = ungated[50].watts - gated[50].watts;
    EXPECT_GE(diff, expected_saving * 0.95);
    EXPECT_LE(diff, expected_saving * 1.45);
}

TEST(PowerModel, GatingSwitchOverheadReducesSaving)
{
    PowerModel pm;
    const auto result = constant_result(interval(2, 0, 0, 60), 100);
    std::vector<std::uint32_t> steady(100, 32);
    std::vector<std::uint32_t> toggling(100);
    for (std::size_t i = 0; i < 100; ++i)
        toggling[i] = (i % 2 == 0) ? 24 : 40; // same mean as steady
    const double avg_steady =
        PowerModel::average_power(pm.power_series_gated(result, steady));
    const double avg_toggling = PowerModel::average_power(
        pm.power_series_gated(result, toggling));
    EXPECT_GT(avg_toggling, avg_steady);
}

TEST(PowerModel, GatedSeriesRequiresFullPlan)
{
    PowerModel pm;
    const auto result = constant_result(interval(2, 0, 0, 60), 10);
    std::vector<std::uint32_t> powered(5, 8);
    EXPECT_THROW(pm.power_series_gated(result, powered),
                 std::invalid_argument);
}

TEST(PowerModel, AveragePowerIsTimeWeighted)
{
    std::vector<PowerSample> series = {
        {0.0, 3.0, 10.0},
        {3.0, 1.0, 30.0},
    };
    EXPECT_DOUBLE_EQ(PowerModel::average_power(series), 15.0);
    EXPECT_DOUBLE_EQ(PowerModel::average_power({}), 0.0);
}

TEST(PowerModel, RmsWindowsMatchConstantPower)
{
    std::vector<PowerSample> series;
    for (int i = 0; i < 100; ++i)
        series.push_back({i * 0.005, 0.005, 20.0});
    const auto rms = PowerModel::rms_windows(series, 0.1);
    ASSERT_EQ(rms.size(), 5u);
    for (double v : rms)
        EXPECT_NEAR(v, 20.0, 1e-9);
}

TEST(RmsWindow, ConstantSignal)
{
    const auto rms = PowerModel::rms_windows({{0.0, 1.0, 5.0}}, 0.1);
    ASSERT_EQ(rms.size(), 10u);
    for (double v : rms)
        EXPECT_NEAR(v, 5.0, 1e-12);
}

TEST(RmsWindow, SplitsAcrossWindows)
{
    // First window: half 3.0, half 4.0 -> rms = sqrt((9+16)/2); the
    // trailing half window of 4.0 is reported as its own window.
    const auto rms =
        PowerModel::rms_windows({{0.0, 0.5, 3.0}, {0.5, 1.0, 4.0}}, 1.0);
    ASSERT_EQ(rms.size(), 2u);
    EXPECT_NEAR(rms[0], std::sqrt((9.0 + 16.0) / 2.0), 1e-12);
    EXPECT_NEAR(rms[1], 4.0, 1e-12);
}

TEST(RmsWindow, RejectsNegativeDuration)
{
    EXPECT_THROW(PowerModel::rms_windows({{0.0, -0.1, 1.0}}, 1.0),
                 std::invalid_argument);
}

TEST(RmsWindow, RejectsZeroWindow)
{
    EXPECT_THROW(PowerModel::rms_windows({}, 0.0), std::invalid_argument);
}

TEST(PowerModel, RejectsBadConfig)
{
    PowerModelConfig cfg;
    cfg.busy_core_w = 0.0;
    EXPECT_THROW(PowerModel pm(cfg), std::invalid_argument);
    cfg = {};
    cfg.idle_poll_duty = 1.5;
    EXPECT_THROW(PowerModel pm(cfg), std::invalid_argument);
}

} // namespace
} // namespace lte::power
