/**
 * @file
 * Integration tests of the full power-management study on a
 * compressed protocol: calibration-table structure, estimation
 * accuracy (the Fig. 12 claim), the strategy power ordering of
 * Tables I/II, and the study exporters.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/study_export.hpp"
#include "core/uplink_study.hpp"

namespace lte::core {
namespace {

/** A compressed study: same shapes, ~100x faster than the paper. */
StudyConfig
compressed_config()
{
    StudyConfig cfg;
    cfg.scale_to(2000);
    cfg.sweep.prb_step = 40;     // 2, 42, ..., 182
    cfg.sweep.duration_s = 0.15;
    return cfg;
}

/** Shared study so calibration runs once for the whole suite. */
UplinkStudy &
shared_study()
{
    static UplinkStudy study = [] {
        UplinkStudy s(compressed_config());
        s.prepare();
        return s;
    }();
    return study;
}

TEST(Study, CalibrationTableCompleteAndOrdered)
{
    const auto &table = shared_study().table();
    EXPECT_TRUE(table.complete());
    // Slopes grow with layers for every modulation...
    for (Modulation mod : kAllModulations) {
        for (std::uint32_t l = 1; l < 4; ++l) {
            EXPECT_LT(table.get(l, mod), table.get(l + 1, mod))
                << "mod=" << modulation_name(mod) << " l=" << l;
        }
    }
    // ...and with modulation order for every layer count.
    for (std::uint32_t l = 1; l <= 4; ++l) {
        EXPECT_LT(table.get(l, Modulation::kQpsk),
                  table.get(l, Modulation::k64Qam));
    }
}

TEST(Study, PeakConfigurationNearlySaturates)
{
    const auto &table = shared_study().table();
    // k_{4,64QAM} * 200 PRB should approach full activity (Fig. 11).
    const double peak = table.get(4, Modulation::k64Qam) * 200.0;
    EXPECT_GT(peak, 0.8);
    EXPECT_LT(peak, 1.1);
}

TEST(Study, EstimateTracksMeasuredActivity)
{
    // Fig. 12: per-window estimated vs measured activity.  The paper
    // reports max error 5.4% and average 1.2% on the real machine;
    // the simulator should be in the same regime.
    auto outcome = shared_study().run_policy(mgmt::PowerPolicy::nonap());
    const auto &intervals = outcome.sim.intervals;

    const double window_s = 0.1; // 20 subframes of the compressed run
    double max_err = 0.0, sum_err = 0.0;
    std::size_t windows = 0;
    double est_acc = 0.0, meas_acc = 0.0, dur_acc = 0.0;
    std::size_t count = 0;
    for (const auto &iv : intervals) {
        est_acc += iv.est_activity * iv.dur;
        meas_acc += iv.busy_cs;
        dur_acc += iv.dur;
        ++count;
        if (dur_acc >= window_s) {
            const double est = est_acc / dur_acc;
            const double meas =
                meas_acc / (62.0 * dur_acc);
            const double err = std::abs(est - meas);
            max_err = std::max(max_err, err);
            sum_err += err;
            ++windows;
            est_acc = meas_acc = dur_acc = 0.0;
        }
    }
    ASSERT_GT(windows, 10u);
    EXPECT_LT(sum_err / static_cast<double>(windows), 0.05);
    EXPECT_LT(max_err, 0.15);
    (void)count;
}

TEST(Study, StrategyPowerOrderingMatchesPaper)
{
    auto &study = shared_study();
    const double nonap =
        study.run_policy(mgmt::PowerPolicy::nonap()).avg_power_w;
    const double idle =
        study.run_policy(mgmt::PowerPolicy::idle()).avg_power_w;
    const double nap =
        study.run_policy(mgmt::PowerPolicy::nap()).avg_power_w;
    const double napidle =
        study.run_policy(mgmt::PowerPolicy::nap_idle()).avg_power_w;
    const double gating =
        study.run_policy(mgmt::PowerPolicy::power_gating()).avg_power_w;

    // Table II ordering: NONAP > IDLE >= NAP > NAP+IDLE > PowerGating.
    EXPECT_GT(nonap, idle);
    EXPECT_GT(nonap, nap);
    EXPECT_LT(napidle, nap);
    EXPECT_LT(napidle, idle);
    EXPECT_LT(gating, napidle);

    // Magnitudes in the paper's ballpark (Table II: 25 / 20.7 / 20.5
    // / 19.9 / 18.5 W).
    EXPECT_NEAR(nonap, 25.0, 2.5);
    EXPECT_NEAR(napidle, 19.9, 2.5);
    EXPECT_NEAR(gating, 18.5, 2.5);
}

TEST(Study, PowerGatingPlanCoversRun)
{
    auto &study = shared_study();
    auto outcome = study.run_policy(mgmt::PowerPolicy::power_gating());
    ASSERT_EQ(outcome.powered.size(), outcome.sim.intervals.size());
    for (std::uint32_t p : outcome.powered) {
        EXPECT_EQ(p % 8, 0u); // whole domains
        EXPECT_LE(p, 64u);
        EXPECT_GE(p, 8u);
    }
}

TEST(Study, ScaleToPreservesRampShape)
{
    StudyConfig cfg;
    cfg.scale_to(6800);
    EXPECT_EQ(cfg.subframes, 6800u);
    EXPECT_EQ(cfg.model.ramp_subframes, 3400u);
    EXPECT_EQ(cfg.model.prob_update_interval, 20u);
}

TEST(Study, RequiresPrepareBeforeRun)
{
    UplinkStudy study(compressed_config());
    EXPECT_FALSE(study.prepared());
    EXPECT_THROW(study.run_policy(mgmt::PowerPolicy::nap()),
                 std::invalid_argument);
}

/** The pid of the first event a study trace export writes. */
int
trace_pid(const mgmt::PowerPolicy &policy)
{
    StrategyOutcome outcome;
    outcome.policy = policy;
    std::ostringstream os;
    write_study_chrome_trace(os, outcome, 62);
    const std::string json = os.str();
    const std::string key = "\"pid\":";
    const auto at = json.find(key);
    EXPECT_NE(at, std::string::npos);
    return std::stoi(json.substr(at + key.size()));
}

TEST(Study, ChromeTracePidsKeepPresetsApart)
{
    // Merged study traces keep one track per preset: DOMAIN-DVFS must
    // not share PowerGating's pid, and the paper's five keep 1..5.
    EXPECT_NE(trace_pid(mgmt::PowerPolicy::domain_dvfs()),
              trace_pid(mgmt::PowerPolicy::power_gating()));
    int pid = 1;
    for (const mgmt::PowerPolicy &policy :
         mgmt::PowerPolicy::paper_presets())
        EXPECT_EQ(trace_pid(policy), pid++) << policy.name;
    EXPECT_EQ(trace_pid(mgmt::PowerPolicy::domain_dvfs()), 6);
    mgmt::PowerPolicy custom = mgmt::PowerPolicy::nap();
    custom.name = "CUSTOM";
    EXPECT_EQ(trace_pid(custom), 7);
}

} // namespace
} // namespace lte::core
