#include "core/uplink_study.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "mgmt/core_allocator.hpp"

namespace lte::core {

void
StudyConfig::scale_to(std::uint64_t n)
{
    LTE_CHECK(n >= 2, "need at least two subframes");
    const double scale = static_cast<double>(n) /
                         static_cast<double>(subframes);
    subframes = n;
    model.ramp_subframes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(model.ramp_subframes) * scale));
    model.prob_update_interval = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(model.prob_update_interval) * scale));
}

StudyConfig
StudyConfig::slice(std::size_t n_cells) const
{
    const auto n =
        static_cast<std::uint32_t>(std::max<std::size_t>(1, n_cells));
    StudyConfig cell = *this;
    cell.sim.n_workers = std::max(1u, sim.n_workers / n);
    cell.power.total_cores = std::max(
        power.domain_size,
        (power.total_cores / n / power.domain_size) * power.domain_size);
    cell.power.base_power_w = power.base_power_w / static_cast<double>(n);
    return cell;
}

UplinkStudy::UplinkStudy(const StudyConfig &config) : config_(config)
{
    config_.sim.validate();
    config_.power.validate();
    config_.model.validate();
}

void
UplinkStudy::prepare()
{
    // 1. Machine saturation point: peak workload fills 62 workers at
    //    one subframe per DELTA (Sec. V-B operating point).
    config_.sim.cycles_per_op = sim::calibrate_cycles_per_op(
        config_.sim, config_.n_antennas, config_.model.seed);

    // 2. Steady-state sweeps fit the k_{L,M} slopes (Fig. 11).
    const mgmt::CalibrationTable table =
        sim::calibrate_table(config_.sim, config_.sweep,
                             config_.n_antennas);
    estimator_ = mgmt::WorkloadEstimator(table);
}

const mgmt::CalibrationTable &
UplinkStudy::table() const
{
    LTE_CHECK(estimator_.has_value(), "call prepare() first");
    return estimator_->table();
}

Calibration
UplinkStudy::calibration() const
{
    LTE_CHECK(estimator_.has_value(), "call prepare() first");
    return Calibration{config_.sim.cycles_per_op, estimator_->table()};
}

void
UplinkStudy::adopt_calibration(const Calibration &calibration)
{
    LTE_CHECK(calibration.cycles_per_op > 0.0,
              "calibration has no cycles/op scale");
    LTE_CHECK(calibration.table.complete(),
              "calibration table is incomplete");
    config_.sim.cycles_per_op = calibration.cycles_per_op;
    estimator_ = mgmt::WorkloadEstimator(calibration.table);
}

StrategyOutcome
UplinkStudy::run_policy(const mgmt::PowerPolicy &policy)
{
    workload::PaperModel model(config_.model);
    return run_policy_on(policy, model, config_.subframes);
}

StrategyOutcome
UplinkStudy::run_policy_on(const mgmt::PowerPolicy &policy,
                           workload::ParameterModel &model,
                           std::uint64_t subframes)
{
    LTE_CHECK(estimator_.has_value(), "call prepare() first");

    sim::SimConfig sim_cfg = config_.sim;
    sim_cfg.policy = policy;

    sim::Machine machine(sim_cfg, config_.n_antennas);
    machine.set_estimator(estimator_);

    StrategyOutcome outcome;
    outcome.policy = policy;
    outcome.sim = machine.run(model, subframes);

    const power::PowerModel pm(config_.power);
    if (policy.analytical_gating) {
        outcome.powered = mgmt::gating_plan(
            outcome.sim.active_cores, config_.power.domain_size,
            config_.power.total_cores, &outcome.gating_stats);
        // Pad trailing drain intervals with the final decision.
        const std::uint32_t last = outcome.powered.empty()
                                       ? config_.power.total_cores
                                       : outcome.powered.back();
        while (outcome.powered.size() < outcome.sim.intervals.size())
            outcome.powered.push_back(last);
        outcome.series =
            pm.power_series_gated(outcome.sim, outcome.powered);
    } else {
        outcome.series = pm.power_series(outcome.sim);
    }
    outcome.avg_power_w = power::PowerModel::average_power(outcome.series);
    outcome.avg_dynamic_w =
        outcome.avg_power_w - config_.power.base_power_w;
    if (machine.estimator().has_value())
        outcome.estimator_stats = machine.estimator()->stats();
    outcome.deadline_miss_rate =
        1.0 - outcome.sim.deadline_hit_rate(kDeadlinePeriods);
    return outcome;
}

MultiCellStrategyOutcome
UplinkStudy::run_policy_multicell(const mgmt::PowerPolicy &policy,
                                  std::size_t n_cells)
{
    LTE_CHECK(n_cells >= 1, "need at least one cell");
    LTE_CHECK(n_cells <= config_.sim.n_workers,
              "need at least one worker per cell");
    LTE_CHECK(config_.power.total_cores / config_.power.domain_size >=
                  n_cells,
              "need at least one power domain per cell");

    MultiCellStrategyOutcome outcome;
    outcome.policy = policy;
    outcome.cells.reserve(n_cells);

    StudyConfig cell_cfg = config_.slice(n_cells);

    std::vector<std::uint32_t> peak_demand(n_cells, 0);
    for (std::size_t c = 0; c < n_cells; ++c) {
        const auto cell_id = static_cast<std::uint32_t>(c + 1);
        cell_cfg.model.seed =
            cell_stream_seed(config_.model.seed, cell_id);
        UplinkStudy cell_study(cell_cfg);
        cell_study.prepare();
        outcome.cells.push_back(cell_study.run_policy(policy));
        for (std::uint32_t demand :
             outcome.cells.back().sim.active_cores)
            peak_demand[c] = std::max(peak_demand[c], demand);
        outcome.total_power_w += outcome.cells.back().avg_power_w;
        outcome.worst_deadline_miss_rate =
            std::max(outcome.worst_deadline_miss_rate,
                     outcome.cells.back().deadline_miss_rate);
    }
    outcome.total_dynamic_w =
        outcome.total_power_w - config_.power.base_power_w;
    outcome.domain_partition = mgmt::partition_domains(
        peak_demand, config_.power.domain_size,
        config_.power.total_cores);
    return outcome;
}

} // namespace lte::core
