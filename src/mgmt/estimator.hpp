/**
 * @file
 * Subframe workload estimation (paper Sec. VI-A).
 *
 * Activity is linear in a user's PRB count with a slope k_{L,M} that
 * depends on layers L and modulation M (Fig. 11, Eq. 3); a subframe's
 * activity is the sum over its users (Eq. 4).  The CalibrationTable
 * holds the twelve slopes, fitted from steady-state activity
 * measurements exactly as the paper does.
 */
#ifndef LTE_MGMT_ESTIMATOR_HPP
#define LTE_MGMT_ESTIMATOR_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "phy/params.hpp"

namespace lte::mgmt {

/** One steady-state calibration observation. */
struct CalibrationSample
{
    std::uint32_t prb = 0;
    double activity = 0.0; ///< measured activity in [0, 1]
    /** Relative weight of this observation in the fit — set to the
     *  traffic mix's density at this allocation size so the fitted
     *  slope is unbiased for the users the estimator will see. */
    double weight = 1.0;
};

/**
 * The k_{L,M} slope table: activity per PRB for each (layers,
 * modulation) configuration.
 */
class CalibrationTable
{
  public:
    CalibrationTable() = default;

    /** Set a slope directly. */
    void set(std::uint32_t layers, Modulation mod, double k_per_prb);

    /** @return the slope for a configuration (0 if never set). */
    double get(std::uint32_t layers, Modulation mod) const;

    /**
     * Weighted through-origin fit of activity = k * PRBs for one
     * configuration's sample set: k = sum(w*y) / sum(w*x).
     */
    void fit(std::uint32_t layers, Modulation mod,
             const std::vector<CalibrationSample> &samples);

    /** True once every (layers, modulation) slot holds a slope > 0. */
    bool complete() const;

  private:
    static std::size_t index(std::uint32_t layers, Modulation mod);

    std::array<double, kMaxLayers * 3> k_{};
};

/**
 * Observability tallies of estimator decisions: how often Eq. 4
 * saturated and how often Eq. 5 was clamped at either bound.  Updated
 * by the (single) thread driving the estimator; a study run carries
 * them in StrategyOutcome::estimator_stats.
 */
struct EstimatorStats
{
    std::uint64_t subframe_estimates = 0;
    std::uint64_t saturated_estimates = 0; ///< Eq. 4 clamped at 1.0
    std::uint64_t core_decisions = 0;
    std::uint64_t clamped_low = 0;  ///< Eq. 5 raised to the floor
    std::uint64_t clamped_high = 0; ///< Eq. 5 capped at max_cores
    /** Estimates raised above the single-subframe Eq. 4 value because
     *  the streaming engine reported a non-empty backlog. */
    std::uint64_t backlog_boosts = 0;
    /** Estimates made under a degraded cost model (any shed-ladder
     *  level) after an admission controller flipped a queued subframe. */
    std::uint64_t degraded_estimates = 0;
};

/** Over-provisioning margin of Eq. 5: the paper's two cores. */
inline constexpr std::uint32_t kCoreMargin = 2;

/** Implements Eqs. 3-5 of the paper. */
class WorkloadEstimator
{
  public:
    explicit WorkloadEstimator(CalibrationTable table);

    /**
     * Eq. 3: estimated activity contribution of one user.  Below
     * kNone the calibrated slope is scaled by shed_cost_ratio(): the
     * slopes are fitted on the full chain (degradation is an
     * admission-time decision, far too rare to calibrate separately),
     * so the op model's analytical ratio is how a planned degrade
     * reaches Eq. 4 before the cheap subframe executes.
     */
    double estimate_user(
        const phy::UserParams &user,
        phy::DegradeLevel level = phy::DegradeLevel::kNone) const;

    /**
     * Eq. 4: estimated activity of a subframe, the sum of its users'
     * estimates at @p level, clamped to [0, 1].  Extended for a
     * streaming pipeline: @p backlog subframes are already resident
     * (queued or executing) when this one arrives, each demanding
     * roughly a subframe's worth of activity, so the demand estimate
     * is the single-subframe value scaled by (1 + backlog), clamped
     * to [0, 1].
     */
    double estimate_subframe(
        const phy::SubframeParams &subframe, std::size_t backlog = 0,
        phy::DegradeLevel level = phy::DegradeLevel::kNone) const;

    /** Price the real turbo decode stage, at the shed ladder's
     *  phy::turbo_iterations_for budgets, into the shed-ladder cost
     *  ratios (set from the engine's receiver configuration).  Off
     *  prices the pass-through pipeline (no decode tasks). */
    void set_real_turbo(bool real_turbo) { real_turbo_ = real_turbo; }

    /**
     * Level-to-full analytical cost ratio of one user: the op-model
     * cost of the chain at @p level (MRC weights, the level's decode
     * budget) over the full chain's (MMSE weights, the full budget).
     */
    double shed_cost_ratio(const phy::UserParams &user,
                           phy::DegradeLevel level) const;

    /**
     * Eq. 5: active cores = estimated activity x max_cores + margin
     * (margin defaults to the paper's two-core over-provisioning),
     * clamped to [max(1, margin), max_cores].  The floor never drops
     * below one: a zero-margin estimator must not deactivate every
     * core, since a napping TILEPro64 core cannot be reactivated
     * remotely (Sec. V-B) and a fully parked pool deadlocks.
     */
    std::uint32_t active_cores(double estimated_activity,
                               std::uint32_t max_cores,
                               std::uint32_t margin = kCoreMargin) const;

    const CalibrationTable &table() const { return table_; }

    /** Decision tallies since construction or the last reset. */
    const EstimatorStats &stats() const { return stats_; }
    void reset_stats() { stats_ = EstimatorStats{}; }

  private:
    CalibrationTable table_;
    bool real_turbo_ = false;
    mutable EstimatorStats stats_;
};

} // namespace lte::mgmt

#endif // LTE_MGMT_ESTIMATOR_HPP
