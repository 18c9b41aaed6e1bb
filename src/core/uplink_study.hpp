/**
 * @file
 * High-level facade for the paper's power-management study
 * (Secs. V-VI): calibrates the simulator and the workload estimator,
 * runs any power policy over the evaluation input model, and returns
 * power series and aggregates.  This is the API the figure/table
 * benches and the examples drive.
 */
#ifndef LTE_CORE_UPLINK_STUDY_HPP
#define LTE_CORE_UPLINK_STUDY_HPP

#include <optional>
#include <vector>

#include "mgmt/core_allocator.hpp"
#include "mgmt/estimator.hpp"
#include "mgmt/power_policy.hpp"
#include "power/power_model.hpp"
#include "sim/calibrate.hpp"
#include "sim/machine.hpp"
#include "sim/sim_config.hpp"
#include "workload/paper_model.hpp"

namespace lte::core {

/**
 * Responsiveness budget in subframe periods: a user whose
 * dispatch-to-completion latency exceeds this misses its deadline (the
 * paper keeps two to three subframes in flight, so the budget is three
 * periods).
 */
inline constexpr double kDeadlinePeriods = 3.0;

/** Full study configuration; defaults follow the paper. */
struct StudyConfig
{
    sim::SimConfig sim;
    power::PowerModelConfig power;
    workload::PaperModelConfig model;
    sim::CalibrationSweep sweep;
    std::size_t n_antennas = 4;
    /** Subframes per policy run (paper: 68 000 = 340 s). */
    std::uint64_t subframes = 68000;

    /**
     * Scale the run to @p n subframes, shrinking the workload ramp
     * proportionally so the triangular load shape is preserved.
     */
    void scale_to(std::uint64_t n);

    /**
     * One cell's equal static slice of this chip when @p n_cells cells
     * share it (0 counts as 1): workers / n, cores rounded down to
     * whole power domains but at least one domain, so every cell's
     * gating plan stays domain-aligned, and base power / n.
     */
    StudyConfig slice(std::size_t n_cells) const;
};

/**
 * The calibration a prepare() pass produces: the cycles/op scale and
 * the fitted k_{L,M} slope table.  A plain value — copy it between
 * studies with the same machine geometry via adopt_calibration() so
 * bench variants do not re-run the identical calibration sweep.
 */
struct Calibration
{
    double cycles_per_op = 0.0;
    mgmt::CalibrationTable table;
};

/** Everything produced by one policy run. */
struct StrategyOutcome
{
    /** The policy that produced this run. */
    mgmt::PowerPolicy policy = mgmt::PowerPolicy::nonap();
    sim::SimResult sim;
    /** Thermal-corrected power series (one sample per subframe). */
    std::vector<power::PowerSample> series;
    /** Eq. 6-7 powered-core plan (PowerGating runs only). */
    std::vector<std::uint32_t> powered;
    double avg_power_w = 0.0;
    double avg_dynamic_w = 0.0; ///< avg_power - base power
    /** Fraction of users finishing past kDeadlinePeriods. */
    double deadline_miss_rate = 0.0;
    /** Eq. 3-5 decision tallies from the run's estimator (if any). */
    mgmt::EstimatorStats estimator_stats;
    /** Eq. 6-7 decision tallies (PowerGating runs only). */
    mgmt::GatingStats gating_stats;
};

/** Aggregates of a sharded multi-cell policy run (DESIGN.md 3f). */
struct MultiCellStrategyOutcome
{
    mgmt::PowerPolicy policy = mgmt::PowerPolicy::nonap();
    /** Per-cell outcomes; lane c serves physical cell id c+1. */
    std::vector<StrategyOutcome> cells;
    double total_power_w = 0.0;   ///< summed per-cell averages
    double total_dynamic_w = 0.0; ///< total minus the full base power
    /** Worst per-cell deadline miss rate (the board is only as
     *  compliant as its worst sector). */
    double worst_deadline_miss_rate = 0.0;
    /** Eq. 6 chip partition from the cells' peak core demands:
     *  powered cores per cell, multiples of domain_size. */
    std::vector<std::uint32_t> domain_partition;
};

class UplinkStudy
{
  public:
    explicit UplinkStudy(const StudyConfig &config);

    /**
     * Calibrate cycles_per_op (machine saturation at peak load) and
     * fit the k_{L,M} estimator table from steady-state sweeps
     * (Sec. VI-A).  Must run before any run_policy*() call.
     */
    void prepare();

    bool prepared() const { return estimator_.has_value(); }
    const mgmt::CalibrationTable &table() const;
    const StudyConfig &config() const { return config_; }
    /** The calibrated cycles/op scale (after prepare()). */
    double cycles_per_op() const { return config_.sim.cycles_per_op; }

    /** The calibration prepare() produced (cycles/op + slope table). */
    Calibration calibration() const;

    /**
     * Adopt a calibration produced by another study with the same
     * machine geometry (n_workers, delta, clock) instead of running
     * prepare().  Power policy, DVFS and gating parameters do not
     * affect calibration — it always measures the NONAP machine — so
     * bench variants share one pass.
     */
    void adopt_calibration(const Calibration &calibration);

    /** Run one power policy over a fresh instance of the paper's
     *  input model (the five paper strategies are the PowerPolicy
     *  presets; see mgmt/power_policy.hpp). */
    StrategyOutcome run_policy(const mgmt::PowerPolicy &policy);

    /**
     * Run one policy over an arbitrary input model (consumed from
     * its current state) for @p subframes dispatches — used for
     * scenarios beyond the paper's evaluation model, e.g. the diurnal
     * 25%-load study.
     */
    StrategyOutcome run_policy_on(const mgmt::PowerPolicy &policy,
                                  workload::ParameterModel &model,
                                  std::uint64_t subframes);

    /**
     * Run one policy on an @p n_cells -way sharded board: every
     * cell receives an equal slice of the workers, power domains and
     * base power, runs its own paper input model on a decorrelated
     * per-cell stream (seed = cell_stream_seed(model.seed, cell_id)),
     * and is calibrated at its sliced operating point, mirroring the
     * paper's per-sector dimensioning.  The chip's power domains are
     * then re-partitioned across the cells from their peak demands
     * (partition_domains) to show the Eq. 6 apportionment.
     */
    MultiCellStrategyOutcome
    run_policy_multicell(const mgmt::PowerPolicy &policy,
                         std::size_t n_cells);

  private:
    StudyConfig config_;
    std::optional<mgmt::WorkloadEstimator> estimator_;
};

} // namespace lte::core

#endif // LTE_CORE_UPLINK_STUDY_HPP
