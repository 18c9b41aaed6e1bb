#include "core/chip_fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string_view>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mgmt/core_allocator.hpp"

namespace lte::core {

namespace {

constexpr std::size_t kLoadBuckets = 10;

/** splitmix64 finalizer: one deterministic draw per (seed, cell). */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t cell)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (cell + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<LoadBucket>
make_buckets()
{
    std::vector<LoadBucket> buckets(kLoadBuckets);
    for (std::size_t b = 0; b < kLoadBuckets; ++b) {
        buckets[b].load_lo =
            static_cast<double>(b) / static_cast<double>(kLoadBuckets);
        buckets[b].load_hi = static_cast<double>(b + 1) /
                             static_cast<double>(kLoadBuckets);
    }
    return buckets;
}

/** A cell's offered load at a subframe: the shared day shape times
 *  the cell's long-run multiplier, clamped to [0, 1].  The cell's MAC
 *  draws at this load and the miss-vs-load buckets key on it. */
double
cell_load(const workload::DiurnalModel &diurnal, double load_scale,
          std::uint64_t subframe)
{
    return std::clamp(diurnal.load_at(subframe) * load_scale, 0.0, 1.0);
}

} // namespace

void
FleetConfig::validate() const
{
    LTE_CHECK(n_cells >= 1, "fleet needs at least one cell");
    LTE_CHECK(ues_per_cell >= 1, "cells need at least one UE");
    LTE_CHECK(subframes >= 2, "fleet horizon must be >= 2 subframes");
    LTE_CHECK(slo_miss_rate > 0.0 && slo_miss_rate <= 1.0,
              "SLO miss rate must be in (0, 1]");
    LTE_CHECK(cell_load_spread >= 0.0 && cell_load_spread < 1.0,
              "cell load spread must be in [0, 1)");
    LTE_CHECK(oversubscribe > 0.0 && oversubscribe <= 8.0,
              "oversubscription must be in (0, 8]");
    chip.sim.validate();
    chip.power.validate();
    diurnal.validate();
}

// ------------------------------------------------- FleetCellModel

FleetCellModel::FleetCellModel(
    const mac::MacConfig &mac_cfg,
    const workload::DiurnalModelConfig &diurnal_cfg, double load_scale)
    : sched_(mac_cfg), diurnal_(diurnal_cfg), load_scale_(load_scale)
{
}

phy::SubframeParams
FleetCellModel::next_subframe()
{
    // The MAC's arrival_rate encodes the long-run average offered
    // load, so the instantaneous multiplier is load(t) / average.
    sched_.set_arrival_scale(
        cell_load(diurnal_, load_scale_, index_) /
        std::max(diurnal_.config().average_load, 1e-9));
    sched_.next_tti_into(scratch_);
    if (!scratch_.users.empty()) {
        // Close the loop immediately from the modelled channel:
        // crc_modelled feedback makes the MAC draw its logistic BLER,
        // which drives HARQ retransmissions and OLLA exactly as a
        // live engine would, minus the round-trip delay.
        outcome_.subframe_index = scratch_.subframe_index;
        outcome_.cell_id = scratch_.cell_id;
        outcome_.users.clear();
        for (const phy::UserParams &user : scratch_.users) {
            runtime::UserOutcome uo;
            uo.user_id = user.id;
            uo.crc_ok = false;
            uo.crc_modelled = true;
            uo.evm_rms = 0.0f;
            outcome_.users.push_back(uo);
        }
        sched_.on_subframe_complete(outcome_, phy::DegradeLevel::kNone);
    }
    ++index_;
    return scratch_;
}

void
FleetCellModel::reset()
{
    sched_.reset();
    diurnal_.reset();
    index_ = 0;
}

// ----------------------------------------------------- CellStream

CellStream::CellStream(workload::ParameterModel &model,
                       std::uint64_t subframes)
{
    counts_.reserve(subframes);
    for (std::uint64_t t = 0; t < subframes; ++t) {
        const phy::SubframeParams params = model.next_subframe();
        if (t == 0) {
            first_index_ = params.subframe_index;
            cell_id_ = params.cell_id;
        }
        LTE_CHECK(params.cell_id == cell_id_ &&
                      params.subframe_index == first_index_ + t,
                  "a recorded stream needs one cell's consecutive TTIs");
        // Bounds users per TTI, PRBs and layers, so the u8 fields
        // below hold them.
        params.validate();
        for (const phy::UserParams &user : params.users) {
            grants_.push_back(
                Grant{user.id, static_cast<std::uint8_t>(user.prb),
                      static_cast<std::uint8_t>(user.layers),
                      static_cast<std::uint8_t>(user.mod)});
        }
        counts_.push_back(static_cast<std::uint8_t>(params.users.size()));
    }
    grants_.shrink_to_fit();
}

phy::SubframeParams
CellStream::next_subframe()
{
    LTE_CHECK(tti_ < subframes(), "replay ran past the stream");
    phy::SubframeParams params;
    params.subframe_index = first_index_ + tti_;
    params.cell_id = cell_id_;
    params.users.resize(counts_[tti_++]);
    for (phy::UserParams &user : params.users) {
        const Grant &g = grants_[grant_++];
        user.id = g.id;
        user.prb = g.prb;
        user.layers = g.layers;
        user.mod = static_cast<Modulation>(g.mod);
    }
    return params;
}

void
CellStream::reset()
{
    tti_ = 0;
    grant_ = 0;
}

// ------------------------------------------------------ ChipFleet

ChipFleet::ChipFleet(const FleetConfig &config)
    : config_(config),
      // Most aggressive first: the optimiser adopts the first
      // candidate whose worst cell meets the SLO.
      candidates_{mgmt::PowerPolicy::domain_dvfs(),
                  mgmt::PowerPolicy::power_gating(),
                  mgmt::PowerPolicy::nap_idle(),
                  mgmt::PowerPolicy::nap(),
                  mgmt::PowerPolicy::idle(),
                  mgmt::PowerPolicy::nonap()}
{
    config_.validate();
}

double
ChipFleet::cell_load_scale(std::size_t cell) const
{
    const double u =
        static_cast<double>(mix(config_.seed, cell) >> 11) * 0x1.0p-53;
    return 1.0 + config_.cell_load_spread * (2.0 * u - 1.0);
}

std::vector<ChipFleet::ChipPlan>
ChipFleet::place_cells() const
{
    const std::uint32_t domains = std::max(
        1u, config_.chip.power.total_cores /
                config_.chip.power.domain_size);
    const std::size_t max_per = std::min<std::size_t>(
        domains, config_.chip.sim.n_workers);
    const std::size_t n_chips =
        (config_.n_cells + max_per - 1) / max_per;

    // Heaviest cells first...
    std::vector<std::size_t> order(config_.n_cells);
    for (std::size_t c = 0; c < order.size(); ++c)
        order[c] = c;
    const double peak_factor =
        config_.diurnal.average_load * (1.0 + config_.diurnal.swing);
    auto peak = [&](std::size_t c) {
        return std::min(1.0, peak_factor * cell_load_scale(c));
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double pa = peak(a), pb = peak(b);
                  return pa != pb ? pa > pb : a < b;
              });

    // ...onto the least-loaded chip with a free slot.
    std::vector<ChipPlan> plans(n_chips);
    for (std::size_t c : order) {
        ChipPlan *best = nullptr;
        for (ChipPlan &plan : plans) {
            if (plan.cells.size() >= max_per)
                continue;
            if (best == nullptr || plan.peak_load < best->peak_load)
                best = &plan;
        }
        LTE_CHECK(best != nullptr, "placement ran out of chip slots");
        best->cells.push_back(c);
        best->peak_load += peak(c);
    }
    return plans;
}

mac::MacConfig
ChipFleet::cell_mac(std::size_t cell, std::uint32_t prb_budget) const
{
    mac::MacConfig cfg = config_.mac;
    cfg.cell_id = static_cast<std::uint32_t>(cell % 511) + 1;
    cfg.seed = cell_stream_seed(config_.seed, cfg.cell_id) ^
               mix(config_.seed, cell);
    cfg.n_ues = config_.ues_per_cell;
    cfg.prb_budget = std::clamp<std::uint32_t>(
        prb_budget, 2, static_cast<std::uint32_t>(kMaxPrbPerSubframe));
    cfg.max_prb_per_grant =
        std::clamp(cfg.max_prb_per_grant, 2u, cfg.prb_budget);
    cfg.validate();
    return cfg;
}

void
ChipFleet::run_chip(const ChipPlan &plan, const Calibration &calibration,
                    ChipOutcome &out,
                    std::vector<LoadBucket> &buckets) const
{
    const StudyConfig slice = config_.chip.slice(plan.cells.size());
    // A cell's PRB share mirrors its worker share of the full chip,
    // scaled by the radio-side oversubscription factor.
    const auto prb_budget = static_cast<std::uint32_t>(std::max<double>(
        4.0, config_.oversubscribe *
                 static_cast<double>(kMaxPrbPerSubframe) *
                 static_cast<double>(slice.sim.n_workers) /
                 static_cast<double>(config_.chip.sim.n_workers)));

    // Draw every cell's stream once; each scheduler is gone before
    // the first simulation starts.
    std::vector<CellStream> streams;
    streams.reserve(plan.cells.size());
    for (std::size_t cell : plan.cells) {
        FleetCellModel model(cell_mac(cell, prb_budget), config_.diurnal,
                             cell_load_scale(cell));
        streams.emplace_back(model, config_.subframes);
    }

    UplinkStudy study(slice);
    study.adopt_calibration(calibration);
    const workload::DiurnalModel diurnal(config_.diurnal);

    out.cells = plan.cells;
    out.slo_met = false;
    for (const mgmt::PowerPolicy &candidate : candidates_) {
        ++out.policies_tried;
        double power_w = 0.0;
        double worst_miss = 0.0;
        double wall_s = 0.0;
        std::vector<std::uint32_t> peak_demand;
        std::vector<LoadBucket> trial_buckets = make_buckets();
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            streams[i].reset();
            const StrategyOutcome run = study.run_policy_on(
                candidate, streams[i], config_.subframes);
            power_w += run.avg_power_w;
            worst_miss = std::max(worst_miss, run.deadline_miss_rate);
            wall_s = run.sim.wall_s;
            std::uint32_t peak = 0;
            for (std::uint32_t demand : run.sim.active_cores)
                peak = std::max(peak, demand);
            peak_demand.push_back(peak);
            // Miss-vs-load: bucket every user by the cell's offered
            // load at its dispatch TTI.
            const double load_scale = cell_load_scale(plan.cells[i]);
            for (std::size_t u = 0; u < run.sim.user_latency.size();
                 ++u) {
                const double load = cell_load(
                    diurnal, load_scale, run.sim.user_dispatch[u]);
                auto b = static_cast<std::size_t>(
                    load * static_cast<double>(kLoadBuckets));
                b = std::min(b, kLoadBuckets - 1);
                ++trial_buckets[b].users;
                trial_buckets[b].misses +=
                    run.sim.user_latency[u] > kDeadlinePeriods;
            }
        }
        const bool meets_slo = worst_miss <= config_.slo_miss_rate;
        const bool last = &candidate == &candidates_.back();
        if (meets_slo || last) {
            out.policy = candidate;
            out.avg_power_w = power_w;
            out.worst_miss_rate = worst_miss;
            out.slo_met = meets_slo;
            out.energy_j = power_w * wall_s;
            out.joules_per_subframe =
                config_.subframes > 0
                    ? out.energy_j /
                          static_cast<double>(config_.subframes)
                    : 0.0;
            out.domain_partition = mgmt::partition_domains(
                peak_demand, config_.chip.power.domain_size,
                config_.chip.power.total_cores);
            buckets = std::move(trial_buckets);
            return;
        }
    }
}

FleetOutcome
ChipFleet::run()
{
    const std::vector<ChipPlan> plans = place_cells();

    // One calibration per distinct slice geometry (cells per chip),
    // shared by every chip with that shape: calibration depends only
    // on the machine slice, never on the policy or the traffic.
    std::map<std::size_t, Calibration> calibrations;
    for (const ChipPlan &plan : plans) {
        const std::size_t key = plan.cells.size();
        if (calibrations.count(key) != 0)
            continue;
        UplinkStudy probe(config_.chip.slice(key));
        probe.prepare();
        calibrations.emplace(key, probe.calibration());
    }

    FleetOutcome outcome;
    outcome.chips.resize(plans.size());
    std::vector<std::vector<LoadBucket>> chip_buckets(plans.size());

    unsigned n_threads = config_.n_threads != 0
        ? config_.n_threads
        : std::max(1u, std::thread::hardware_concurrency());
    n_threads = std::min<unsigned>(
        n_threads, static_cast<unsigned>(plans.size()));

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t chip =
                next.fetch_add(1, std::memory_order_relaxed);
            if (chip >= plans.size())
                return;
            run_chip(plans[chip],
                     calibrations.at(plans[chip].cells.size()),
                     outcome.chips[chip], chip_buckets[chip]);
        }
    };
    if (n_threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(n_threads);
        for (unsigned t = 0; t < n_threads; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }

    outcome.buckets = make_buckets();
    outcome.total_ues = static_cast<std::uint64_t>(config_.n_cells) *
                        config_.ues_per_cell;
    for (const mgmt::PowerPolicy &candidate : candidates_)
        outcome.policy_counts.emplace_back(candidate.name, 0);
    for (std::size_t chip = 0; chip < outcome.chips.size(); ++chip) {
        const ChipOutcome &c = outcome.chips[chip];
        outcome.total_power_w += c.avg_power_w;
        outcome.energy_j += c.energy_j;
        outcome.joules_per_subframe += c.joules_per_subframe;
        outcome.worst_miss_rate =
            std::max(outcome.worst_miss_rate, c.worst_miss_rate);
        outcome.chips_missing_slo += !c.slo_met;
        for (std::size_t b = 0; b < outcome.buckets.size(); ++b) {
            outcome.buckets[b].users += chip_buckets[chip][b].users;
            outcome.buckets[b].misses += chip_buckets[chip][b].misses;
        }
        for (auto &[name, count] : outcome.policy_counts) {
            if (std::string_view(name) ==
                std::string_view(c.policy.name))
                ++count;
        }
    }
    return outcome;
}

} // namespace lte::core
