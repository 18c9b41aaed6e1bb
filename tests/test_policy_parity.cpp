/**
 * @file
 * PR 10 refactor guards.
 *
 * 1. Bit-for-bit parity: the five paper strategies (the PowerPolicy
 *    presets), the DVFS variants and the 2-cell multicell run must
 *    reproduce the exact results of the original enum-dispatch
 *    machine.  The digests below were captured on that tree (FNV-1a
 *    over the double bit patterns of every interval, power sample and
 *    aggregate); any FP-visible change to these paths trips them.
 * 2. The shared-calibration handle (Calibration / adopt_calibration)
 *    must hand over the estimator coefficients exactly.
 * 3. Behavioural coverage of the per-domain power-state machine
 *    (DOMAIN-DVFS): occupancy conservation including gated time, rung
 *    quantisation, transition accounting, and the headline power win
 *    over NAP+IDLE.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstring>
#include <set>

#include "core/uplink_study.hpp"
#include "sim/calibrate.hpp"
#include "sim/machine.hpp"
#include "workload/steady_model.hpp"

namespace lte {
namespace {

// ----------------------------------------------------- digest helpers

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
mix_double(std::uint64_t h, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return fnv1a(h, &bits, sizeof bits);
}

std::uint64_t
mix_u64(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(h, &v, sizeof v);
}

std::uint64_t
digest(const core::StrategyOutcome &o)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &iv : o.sim.intervals) {
        h = mix_double(h, iv.busy_cs);
        h = mix_double(h, iv.spin_cs);
        h = mix_double(h, iv.nap_idle_cs);
        h = mix_double(h, iv.nap_deact_cs);
        h = mix_double(h, iv.est_activity);
        h = mix_double(h, iv.freq_scale);
        h = mix_u64(h, iv.watermark);
    }
    for (const auto &s : o.series)
        h = mix_double(h, s.watts);
    for (std::uint32_t c : o.sim.active_cores)
        h = mix_u64(h, c);
    for (std::uint32_t p : o.powered)
        h = mix_u64(h, p);
    h = mix_u64(h, o.sim.tasks_executed);
    h = mix_double(h, o.avg_power_w);
    h = mix_double(h, o.deadline_miss_rate);
    return h;
}

/** The compressed study shape the digests were pinned on. */
core::StudyConfig
compressed_config()
{
    core::StudyConfig cfg;
    cfg.scale_to(2000);
    cfg.sweep.prb_step = 40;
    cfg.sweep.duration_s = 0.15;
    return cfg;
}

/** One prepared study shared by the parity tests (calibration is the
 *  expensive part; the runs are cheap). */
core::UplinkStudy &
shared_study()
{
    static core::UplinkStudy *study = [] {
        auto *s = new core::UplinkStudy(compressed_config());
        s->prepare();
        return s;
    }();
    return *study;
}

// ------------------------------------------------- preset parity

TEST(PolicyParity, CalibrationMatchesPreRefactor)
{
    EXPECT_DOUBLE_EQ(shared_study().cycles_per_op(),
                     5.2619034099985704);
}

TEST(PolicyParity, StrategyDigestsMatchPreRefactor)
{
    struct Pinned
    {
        mgmt::PowerPolicy policy;
        std::uint64_t digest;
        double avg_power_w;
    };
    // Captured on the pre-refactor tree (enum-dispatch machine,
    // chip-wide SimConfig::dvfs) at the compressed_config() shape.
    const Pinned pinned[] = {
        {mgmt::PowerPolicy::nonap(), 0x660c10ea80f04fe4ull,
         24.508925404004991},
        {mgmt::PowerPolicy::idle(), 0x390a0fa5b898a537ull,
         20.812736590213358},
        {mgmt::PowerPolicy::nap(), 0x89ed5f92113a7df3ull,
         20.369899947409763},
        {mgmt::PowerPolicy::nap_idle(), 0xa09a416e1b1899c8ull,
         19.893273052100358},
        {mgmt::PowerPolicy::power_gating(), 0x225c1e7d7db06f5eull,
         18.938078512436881},
    };
    for (const auto &p : pinned) {
        const auto outcome = shared_study().run_policy(p.policy);
        EXPECT_EQ(digest(outcome), p.digest) << p.policy.name;
        EXPECT_DOUBLE_EQ(outcome.avg_power_w, p.avg_power_w)
            << p.policy.name;
        EXPECT_EQ(outcome.sim.tasks_executed, 421144u);
        // Legacy runs must not grow domain tracks (that would change
        // the power model's dispatch).
        EXPECT_EQ(outcome.sim.n_domains, 0u);
        for (const auto &iv : outcome.sim.intervals)
            EXPECT_TRUE(iv.domains.empty());
    }
}

TEST(PolicyParity, DvfsVariantDigestsMatchPreRefactor)
{
    // The chip-wide DVFS knob is orthogonal to the paper strategies:
    // set on a preset it reproduces the runs pinned when it lived on
    // SimConfig.
    mgmt::PowerPolicy dvfs_nonap = mgmt::PowerPolicy::nonap();
    dvfs_nonap.dvfs = true;
    const auto nonap = shared_study().run_policy(dvfs_nonap);
    EXPECT_EQ(digest(nonap), 0x23bf0168c1cd830full);
    EXPECT_DOUBLE_EQ(nonap.avg_power_w, 19.306473028186318);
    mgmt::PowerPolicy dvfs_napidle = mgmt::PowerPolicy::nap_idle();
    dvfs_napidle.dvfs = true;
    const auto napidle = shared_study().run_policy(dvfs_napidle);
    EXPECT_EQ(digest(napidle), 0xa00fa8e4d2e52b7dull);
    EXPECT_DOUBLE_EQ(napidle.avg_power_w, 19.855433741340285);
}

TEST(PolicyParity, MulticellDigestMatchesPreRefactor)
{
    const auto mc = shared_study().run_policy_multicell(
        mgmt::PowerPolicy::nap_idle(), 2);
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &cell : mc.cells)
        h = mix_u64(h, digest(cell));
    for (std::uint32_t d : mc.domain_partition)
        h = mix_u64(h, d);
    EXPECT_EQ(h, 0x49e09e564f9a7724ull);
    EXPECT_DOUBLE_EQ(mc.total_power_w, 19.564170683010389);
    EXPECT_DOUBLE_EQ(mc.worst_deadline_miss_rate,
                     0.05543453766994666);
}

TEST(PolicyParity, PresetFlagsMatchPaperStrategies)
{
    const auto nonap = mgmt::PowerPolicy::nonap();
    EXPECT_FALSE(nonap.proactive);
    EXPECT_FALSE(nonap.reactive_idle);
    EXPECT_FALSE(nonap.analytical_gating);
    const auto idle = mgmt::PowerPolicy::idle();
    EXPECT_FALSE(idle.proactive);
    EXPECT_TRUE(idle.reactive_idle);
    const auto nap = mgmt::PowerPolicy::nap();
    EXPECT_TRUE(nap.proactive);
    EXPECT_FALSE(nap.reactive_idle);
    const auto nap_idle = mgmt::PowerPolicy::nap_idle();
    EXPECT_TRUE(nap_idle.proactive);
    EXPECT_TRUE(nap_idle.reactive_idle);
    const auto gating = mgmt::PowerPolicy::power_gating();
    EXPECT_TRUE(gating.proactive);
    EXPECT_TRUE(gating.reactive_idle);
    EXPECT_TRUE(gating.analytical_gating);
    // The presets carry the paper's table labels, in its order.
    const char *paper_names[] = {"NONAP", "IDLE", "NAP", "NAP+IDLE",
                                 "PowerGating"};
    const auto presets = mgmt::PowerPolicy::paper_presets();
    ASSERT_EQ(presets.size(), 5u);
    for (std::size_t k = 0; k < presets.size(); ++k) {
        EXPECT_STREQ(presets[k].name, paper_names[k]);
        EXPECT_FALSE(presets[k].domain_machine);
        EXPECT_FALSE(presets[k].dvfs);
    }
}

// -------------------------------------------- calibration handle (S1)

TEST(CalibrationHandle, AdoptHandsOverCoefficientsExactly)
{
    const core::Calibration calibration = shared_study().calibration();
    core::UplinkStudy adopted(compressed_config());
    EXPECT_FALSE(adopted.prepared());
    adopted.adopt_calibration(calibration);
    EXPECT_TRUE(adopted.prepared());
    // All twelve k_{L,M} slopes and the cycles/op scale, bit-exact.
    EXPECT_DOUBLE_EQ(adopted.cycles_per_op(),
                     shared_study().cycles_per_op());
    for (std::uint32_t layers = 1; layers <= kMaxLayers; ++layers) {
        for (Modulation mod : {Modulation::kQpsk, Modulation::k16Qam,
                               Modulation::k64Qam}) {
            const double k = shared_study().table().get(layers, mod);
            EXPECT_GT(k, 0.0);
            EXPECT_DOUBLE_EQ(adopted.table().get(layers, mod), k)
                << "L=" << layers;
        }
    }
}

TEST(CalibrationHandle, AdoptedStudyReproducesPreparedRun)
{
    core::UplinkStudy adopted(compressed_config());
    adopted.adopt_calibration(shared_study().calibration());
    const auto run = adopted.run_policy(mgmt::PowerPolicy::nap_idle());
    EXPECT_EQ(digest(run), 0xa09a416e1b1899c8ull);
}

TEST(CalibrationHandle, RejectsIncompleteCalibration)
{
    core::UplinkStudy study(compressed_config());
    EXPECT_THROW(study.adopt_calibration(core::Calibration{}),
                 std::exception);
    core::Calibration missing_table;
    missing_table.cycles_per_op = 5.0;
    EXPECT_THROW(study.adopt_calibration(missing_table),
                 std::exception);
}

// ------------------------------------------- domain state machine

phy::UserParams
steady_user(std::uint32_t prb)
{
    phy::UserParams u;
    u.prb = prb;
    u.layers = 1;
    u.mod = Modulation::kQpsk;
    return u;
}

sim::SimConfig
domain_config()
{
    sim::SimConfig cfg;
    cfg.cycles_per_op = sim::calibrate_cycles_per_op(cfg);
    cfg.policy = mgmt::PowerPolicy::domain_dvfs();
    return cfg;
}

mgmt::WorkloadEstimator
quick_estimator(const sim::SimConfig &cfg)
{
    sim::CalibrationSweep sweep;
    sweep.prb_step = 66;
    sweep.duration_s = 0.1;
    return mgmt::WorkloadEstimator(sim::calibrate_table(cfg, sweep));
}

TEST(DomainMachine, OccupancyConservesTimeIncludingGated)
{
    sim::SimConfig cfg = domain_config();
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(steady_user(20));
    const auto result = machine.run(model, 60);
    ASSERT_GT(result.n_domains, 0u);
    for (const auto &iv : result.intervals) {
        const double total = iv.busy_cs + iv.spin_cs + iv.nap_idle_cs +
                             iv.nap_deact_cs + iv.gated_cs;
        EXPECT_NEAR(total, cfg.n_workers * iv.dur, 1e-9);
        // The policy naps idle workers, so no core ever spins.
        EXPECT_EQ(iv.spin_cs, 0.0);
        // Domain tracks tile the chip track.
        ASSERT_EQ(iv.domains.size(), result.n_domains);
        double dom_total = 0.0;
        for (const auto &dom : iv.domains)
            dom_total += dom.busy_cs + dom.nap_idle_cs +
                         dom.nap_deact_cs + dom.gated_cs;
        EXPECT_NEAR(dom_total, total, 1e-9);
    }
}

TEST(DomainMachine, GatesSurplusDomainsAtLowLoad)
{
    sim::SimConfig cfg = domain_config();
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(steady_user(20));
    const auto result = machine.run(model, 60);
    EXPECT_GT(result.gate_transitions, 0u);
    double gated_cs = 0.0;
    for (const auto &iv : result.intervals)
        gated_cs += iv.gated_cs;
    // A ~2-domain workload on an 8-domain chip parks most of it.
    EXPECT_GT(gated_cs, 0.5 * result.wall_s * cfg.n_workers);
    // Every user still completes.
    EXPECT_EQ(result.user_latency.size(), 60u);
    EXPECT_EQ(result.user_latency.size(), result.user_dispatch.size());
}

TEST(DomainMachine, GatesAfterExactlyTheHysteresisStreak)
{
    // At low load the top domain is surplus from the first dispatch:
    // it naps there, and gates on the kGateHysteresis-th consecutive
    // surplus dispatch, not one later.  Its workers never took work,
    // so nothing drains.
    sim::SimConfig cfg = domain_config();
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(steady_user(20));
    const auto result = machine.run(model, 60);
    ASSERT_GT(result.n_domains, 1u);
    ASSERT_GT(result.intervals.size(), mgmt::kGateHysteresis);
    const std::size_t top = result.n_domains - 1;
    const auto state_at = [&](std::size_t i) {
        return static_cast<mgmt::DomainState>(
            result.intervals[i].domains[top].state);
    };
    for (std::size_t i = 0; i + 1 < mgmt::kGateHysteresis; ++i) {
        EXPECT_EQ(state_at(i), mgmt::DomainState::kNap) << "dispatch " << i;
        EXPECT_EQ(result.intervals[i].gate_transitions, 0u);
    }
    EXPECT_EQ(state_at(mgmt::kGateHysteresis - 1),
              mgmt::DomainState::kGated);
    EXPECT_GT(result.intervals[mgmt::kGateHysteresis - 1].gate_transitions,
              0u);
}

TEST(DomainMachine, FrequencySnapsToConfiguredRungs)
{
    sim::SimConfig cfg = domain_config();
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(steady_user(60));
    const auto result = machine.run(model, 60);
    const std::set<double> rungs(mgmt::kRungs.begin(), mgmt::kRungs.end());
    for (const auto &iv : result.intervals) {
        EXPECT_TRUE(rungs.count(iv.freq_scale) == 1)
            << "freq " << iv.freq_scale;
        for (const auto &dom : iv.domains)
            EXPECT_TRUE(rungs.count(dom.freq_scale) == 1);
    }
}

TEST(DomainMachine, ChargesTransitionEnergy)
{
    sim::SimConfig cfg = domain_config();
    sim::Machine machine(cfg);
    machine.set_estimator(quick_estimator(cfg));
    workload::SteadyModel model(steady_user(20));
    const auto result = machine.run(model, 60);
    ASSERT_GT(result.gate_transitions + result.rung_transitions, 0u);
    EXPECT_GT(result.transition_energy_j, 0.0);
    double interval_sum = 0.0;
    for (const auto &iv : result.intervals)
        interval_sum += iv.transition_energy_j;
    EXPECT_NEAR(interval_sum, result.transition_energy_j, 1e-12);
}

TEST(DomainMachine, ValidateRejectsBadPolicies)
{
    // domain_machine requires the proactive estimator path.
    auto p = mgmt::PowerPolicy::domain_dvfs();
    p.proactive = false;
    EXPECT_THROW(p.validate(), std::exception);
    // ...and is exclusive with continuous chip-wide DVFS.
    p = mgmt::PowerPolicy::domain_dvfs();
    p.dvfs = true;
    EXPECT_THROW(p.validate(), std::exception);
    // ...and naps idle workers: a domain has no spin track to bill.
    p = mgmt::PowerPolicy::domain_dvfs();
    p.reactive_idle = false;
    EXPECT_THROW(p.validate(), std::exception);
    // The preset itself is valid.
    EXPECT_NO_THROW(mgmt::PowerPolicy::domain_dvfs().validate());
}

TEST(DomainMachine, BeatsNapIdleOnThePaperModel)
{
    // The PR 10 headline: discrete rungs + inline gating beat the
    // paper's best reactive strategy at equal workload, at a small
    // responsiveness cost (transition stalls).
    const auto napidle = shared_study().run_policy(
        mgmt::PowerPolicy::nap_idle());
    const auto dom = shared_study().run_policy(
        mgmt::PowerPolicy::domain_dvfs());
    EXPECT_LT(dom.avg_power_w, napidle.avg_power_w - 0.5);
    EXPECT_LT(dom.deadline_miss_rate,
              napidle.deadline_miss_rate + 0.05);
    EXPECT_EQ(dom.sim.n_domains, 8u);
    EXPECT_GT(dom.sim.gate_transitions, 0u);
    EXPECT_GT(dom.sim.rung_transitions, 0u);
}

} // namespace
} // namespace lte
