/**
 * @file
 * city_fleet: core::ChipFleet with the bench/city_scale defaults (104
 * cells, 10 000 UEs per cell, 2000 subframes, SLO 0.5%) on 3 chip
 * threads.  Every figure it produces about chips — watts, joules,
 * misses, subframes — is SIMULATED (the TILEPro64 discrete-event
 * model); only the wall-clock rates are measured on this host.
 */
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "core/chip_fleet.hpp"
#include "host.hpp"
#include "mac/mcs.hpp"
#include "mgmt/power_policy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lte;

constexpr unsigned kThreads = 3;
constexpr std::size_t kMinReps = 2;
/** Calibrations timed for set-up (each takes milliseconds). */
constexpr std::size_t kSetupReps = 31;
/** Cells, spread evenly over the fleet, whose MAC is timed TTI by TTI
 *  over the whole horizon for the mac.* figures. */
constexpr std::size_t kTimedCells = 8;

/** bench/city_scale's default fleet. */
core::FleetConfig
fleet_config(std::uint64_t seed)
{
    core::FleetConfig cfg;
    cfg.n_cells = 104;
    cfg.ues_per_cell = 10000;
    cfg.subframes = 2000;
    cfg.slo_miss_rate = 0.005;
    cfg.seed = seed;
    cfg.n_threads = kThreads;
    cfg.diurnal.period_subframes = cfg.subframes;
    cfg.diurnal.average_load = 0.25;
    cfg.diurnal.swing = 0.8;
    cfg.cell_load_spread = 0.5;
    cfg.oversubscribe = 4.0;
    cfg.chip.sweep.prb_step = 40;
    cfg.chip.sweep.duration_s = 0.15;
    return cfg;
}

/** Cells per chip and the per-cell study slice, computed from the
 *  public configuration the same way the fleet places and slices. */
std::size_t
cells_per_chip(const core::FleetConfig &cfg)
{
    const std::uint32_t domains = std::max(
        1u, cfg.chip.power.total_cores / cfg.chip.power.domain_size);
    return std::min<std::size_t>(domains, cfg.chip.sim.n_workers);
}

core::StudyConfig
cell_slice(const core::FleetConfig &cfg, std::size_t n_cells)
{
    const auto n = static_cast<std::uint32_t>(n_cells);
    core::StudyConfig slice = cfg.chip;
    slice.sim.n_workers = std::max(1u, cfg.chip.sim.n_workers / n);
    slice.power.total_cores = std::max(
        cfg.chip.power.domain_size,
        (cfg.chip.power.total_cores / n / cfg.chip.power.domain_size) *
            cfg.chip.power.domain_size);
    slice.power.base_power_w =
        cfg.chip.power.base_power_w / static_cast<double>(n);
    return slice;
}

/** One 10k-UE cell's MAC at the fleet's slice budget and auto rate. */
mac::MacConfig
cell_mac(const core::FleetConfig &cfg, const core::StudyConfig &slice,
         std::uint64_t seed)
{
    mac::MacConfig m = cfg.mac;
    m.seed = seed;
    m.n_ues = cfg.ues_per_cell;
    m.prb_budget = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(cfg.oversubscribe *
                                   static_cast<double>(kMaxPrbPerSubframe) *
                                   static_cast<double>(slice.sim.n_workers) /
                                   static_cast<double>(cfg.chip.sim.n_workers)),
        4, static_cast<std::uint32_t>(kMaxPrbPerSubframe));
    m.max_prb_per_grant = std::clamp(m.max_prb_per_grant, 2u, m.prb_budget);
    const std::uint8_t mcs = mac::highest_mcs_for(m.snr_mean_db);
    const double bits_per_prb =
        static_cast<double>(mac::tb_payload_bits(mcs, m.prb_budget, 1)) /
        static_cast<double>(m.prb_budget);
    m.arrival_rate = cfg.diurnal.average_load *
                     static_cast<double>(m.prb_budget) * bits_per_prb /
                     (m.burst_mean * static_cast<double>(m.packet_bits));
    return m;
}

/** A recorded grant stream replayed as a ParameterModel. */
class ReplayModel final : public workload::ParameterModel
{
  public:
    explicit ReplayModel(const std::vector<phy::SubframeParams> &stream)
        : stream_(stream)
    {
    }
    phy::SubframeParams next_subframe() override
    {
        return stream_[next_++ % stream_.size()];
    }
    void reset() override { next_ = 0; }

  private:
    const std::vector<phy::SubframeParams> &stream_;
    std::size_t next_ = 0;
};

struct Rep
{
    double wall_s = 0.0;
    double cell_subframes = 0.0;
    core::FleetOutcome outcome;
};

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
policy_mix(const core::FleetOutcome &outcome)
{
    std::string mix;
    for (const auto &[name, count] : outcome.policy_counts) {
        if (!mix.empty())
            mix += ',';
        mix += name;
        mix += ':';
        mix += std::to_string(count);
    }
    return mix;
}

/** Everything the gate compares: watts, J/subframe, per-chip policies
 *  and the miss-vs-load curve, at full precision. */
std::string
fingerprint(const core::FleetOutcome &outcome)
{
    std::string fp = exact(outcome.total_power_w);
    fp += '|';
    fp += exact(outcome.joules_per_subframe);
    fp += '|';
    fp += policy_mix(outcome);
    for (const core::ChipOutcome &chip : outcome.chips) {
        fp += '|';
        fp += chip.policy.name;
    }
    for (const core::LoadBucket &b : outcome.buckets) {
        fp += '|';
        fp += std::to_string(b.users);
        fp += '/';
        fp += std::to_string(b.misses);
    }
    return fp;
}

} // namespace

void
run_city_fleet(const Args &args, Report &report)
{
    const core::FleetConfig cfg = fleet_config(args.seed);
    const std::size_t per_chip = cells_per_chip(cfg);
    const core::StudyConfig slice = cell_slice(cfg, per_chip);
    report.fact("workload",
                "city_fleet: ChipFleet, 104 cells x 10000 UEs, 2000 "
                "subframes, SLO 0.5%, 3 chip threads; chip-side figures "
                "are SIMULATED");

    // Set-up: the fleet's per-geometry calibration, repeated.
    std::vector<double> setup;
    core::Calibration calibration;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        core::UplinkStudy probe(slice);
        probe.prepare();
        calibration = probe.calibration();
        setup.push_back(seconds_since(t0));
    }

    std::vector<Rep> reps;
    double rss_mb = 0.0;
    const auto loop_start = Clock::now();
    while (reps.size() < kMinReps || seconds_since(loop_start) < args.seconds) {
        Rep rep;
        core::ChipFleet fleet(cfg);
        const auto t0 = Clock::now();
        rep.outcome = fleet.run();
        rep.wall_s = seconds_since(t0);
        for (const core::ChipOutcome &chip : rep.outcome.chips) {
            rep.cell_subframes += static_cast<double>(chip.policies_tried) *
                                  static_cast<double>(chip.cells.size()) *
                                  static_cast<double>(cfg.subframes);
        }
        reps.push_back(std::move(rep));
        if (reps.size() == 1)
            rss_mb = peak_rss_mb();
    }

    // Gates: every repetition reproduces the first bit for bit, and the
    // outcome is internally consistent.
    const core::FleetOutcome &first = reps.front().outcome;
    std::vector<double> rate, wall_ms;
    for (const Rep &rep : reps) {
        rate.push_back(rep.cell_subframes / rep.wall_s);
        wall_ms.push_back(rep.wall_s * 1e3);
        if (fingerprint(rep.outcome) != fingerprint(first))
            report.fail("city_fleet: repetitions disagree on watts, "
                        "J/subframe or policy mix");
    }
    std::size_t adopted = 0;
    for (const auto &entry : first.policy_counts)
        adopted += entry.second;
    if (adopted != first.chips.size() || first.total_power_w <= 0.0)
        report.fail("city_fleet: policy mix does not cover every chip");
    report.gate_value("fleet_w", exact(first.total_power_w));
    report.gate_value("j_per_sf", exact(first.joules_per_subframe));
    report.gate_value("policy_mix", policy_mix(first));
    report.fact("city_fleet.repetitions", std::to_string(reps.size()));
    report.fact("city_fleet.simulated",
                "fleet " + exact(first.total_power_w) + " W, " +
                    exact(first.joules_per_subframe) + " J/subframe, mix " +
                    policy_mix(first));

    std::uint64_t users = 0, misses = 0;
    for (const core::LoadBucket &b : first.buckets) {
        users += b.users;
        misses += b.misses;
    }
    report.attempted = first.chips.size() * per_chip * cfg.subframes;
    report.failed = 0;

    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("throughput_sf_s", median(rate), "1/s");
    // A fleet study's user waits for the whole study: its wall time.
    report.metric("latency_p50_ms", quantile(wall_ms, 0.5), "ms");
    report.metric("latency_p99_ms", quantile(wall_ms, 0.99), "ms");
    report.metric("served_frac",
                  users > 0 ? 1.0 - static_cast<double>(misses) /
                                        static_cast<double>(users)
                            : 1.0,
                  "ratio");

    if (!args.trace)
        return;

    // Per-layer: the MAC and the simulator timed from outside.
    report.metric("sim_cell_sf_per_s", median(rate), "1/s");
    report.metric("sim.calibrate_s", median(setup), "s");
    std::size_t tried = 0;
    for (const core::ChipOutcome &chip : first.chips)
        tried += chip.policies_tried;
    report.metric("mgmt.adopt_ratio",
                  static_cast<double>(first.chips.size()) /
                      static_cast<double>(tried),
                  "ratio");
    report.metric("power.fleet_w", first.total_power_w, "W");
    report.metric("power.j_per_sf", first.joules_per_subframe, "J");

    // The cell schedulers: FleetCellModel::next_subframe timed call by
    // call over the whole diurnal horizon, each cell at its fleet load
    // multiplier.
    const core::ChipFleet fleet(cfg);
    std::vector<double> tti_ms, init_ms;
    std::vector<phy::SubframeParams> stream;
    mac::MacStats mac_totals;
    for (std::size_t k = 0; k < kTimedCells; ++k) {
        const std::size_t c = k * cfg.n_cells / kTimedCells;
        const auto t_init = Clock::now();
        core::FleetCellModel cell(
            cell_mac(cfg, slice,
                     cell_stream_seed(args.seed,
                                      static_cast<std::uint32_t>(c + 1))),
            cfg.diurnal, fleet.cell_load_scale(c));
        init_ms.push_back(seconds_since(t_init) * 1e3);
        for (std::uint64_t t = 0; t < cfg.subframes; ++t) {
            const auto t0 = Clock::now();
            phy::SubframeParams params = cell.next_subframe();
            tti_ms.push_back(seconds_since(t0) * 1e3);
            if (k == 0)
                stream.push_back(std::move(params));
        }
        const mac::MacStats s = cell.scheduler().stats();
        mac_totals.ttis += s.ttis;
        mac_totals.grants += s.grants;
        mac_totals.retx_grants += s.retx_grants;
    }

    double tti_total_ms = 0.0;
    for (double ms : tti_ms)
        tti_total_ms += ms;
    report.metric("mac.init_ms", median(init_ms), "ms");
    report.metric("mac.tti_us",
                  tti_total_ms * 1e3 / static_cast<double>(tti_ms.size()),
                  "us");
    const auto per = [](std::uint64_t n, std::uint64_t d) {
        return static_cast<double>(n) /
               static_cast<double>(std::max<std::uint64_t>(1, d));
    };
    report.metric("mac.grants_per_tti",
                  per(mac_totals.grants, mac_totals.ttis), "count");
    report.metric("mac.retx_frac",
                  per(mac_totals.retx_grants, mac_totals.grants), "ratio");

    core::UplinkStudy study(slice);
    study.adopt_calibration(calibration);
    ReplayModel replay(stream);
    const auto t_sim = Clock::now();
    study.run_policy_on(mgmt::PowerPolicy::nap_idle(), replay, stream.size());
    report.metric("sim.sf_per_s",
                  static_cast<double>(stream.size()) / seconds_since(t_sim),
                  "1/s");
    report.fact("idle_layers",
                "phy opmodel trace runtime io input admission obs shed_frac "
                "degraded_frac");
    measure_host_peak(report);
}

} // namespace perfbench
