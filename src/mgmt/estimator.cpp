#include "mgmt/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "phy/op_model.hpp"

namespace lte::mgmt {

namespace {

/** The paper's four-antenna receiver — the same configuration the
 *  calibration slopes are measured on, so cost ratios computed with it
 *  stay consistent with Eq. 3's units. */
constexpr std::size_t kCalibrationAntennas = 4;

} // namespace

std::size_t
CalibrationTable::index(std::uint32_t layers, Modulation mod)
{
    LTE_CHECK(layers >= 1 && layers <= kMaxLayers, "layers must be 1..4");
    return (layers - 1) * 3 + static_cast<std::size_t>(mod);
}

void
CalibrationTable::set(std::uint32_t layers, Modulation mod,
                      double k_per_prb)
{
    LTE_CHECK(k_per_prb >= 0.0, "slope must be non-negative");
    k_[index(layers, mod)] = k_per_prb;
}

double
CalibrationTable::get(std::uint32_t layers, Modulation mod) const
{
    return k_[index(layers, mod)];
}

void
CalibrationTable::fit(std::uint32_t layers, Modulation mod,
                      const std::vector<CalibrationSample> &samples)
{
    LTE_CHECK(!samples.empty(), "need at least one calibration sample");
    // Weighted through-origin fit with k = sum(w*y) / sum(w*x) rather
    // than the classic least squares sum(xy)/sum(x^2): the latter
    // weights points by x^2 and overfits the largest allocations
    // (whose cost per PRB is highest because of the FFT log factor),
    // biasing estimates for the typical mix of small users.  With
    // weights equal to the traffic mix's density, k is the
    // mixture-average cost per PRB, which is what Eq. 4's per-user
    // sums need to be unbiased.
    double swy = 0.0, swx = 0.0;
    for (const auto &s : samples) {
        LTE_CHECK(s.weight >= 0.0, "weights must be non-negative");
        swx += s.weight * static_cast<double>(s.prb);
        swy += s.weight * s.activity;
    }
    LTE_CHECK(swx > 0.0,
              "samples must include a weighted non-zero PRB count");
    k_[index(layers, mod)] = std::max(0.0, swy / swx);
}

bool
CalibrationTable::complete() const
{
    return std::all_of(k_.begin(), k_.end(),
                       [](double k) { return k > 0.0; });
}

WorkloadEstimator::WorkloadEstimator(CalibrationTable table)
    : table_(table)
{
}

double
WorkloadEstimator::shed_cost_ratio(const phy::UserParams &user,
                                   phy::DegradeLevel level) const
{
    if (level == phy::DegradeLevel::kNone)
        return 1.0;
    // The baseline is the chain the slopes are calibrated on: with
    // real-turbo pricing that includes the full-budget decode stage,
    // so shrinking the iteration budget shows up as a ratio < 1 even
    // before the MRC weight saving.
    const auto decode_at = [this](phy::DegradeLevel l) {
        return real_turbo_
                   ? phy::DecodeModel{true, phy::turbo_iterations_for(l)}
                   : phy::DecodeModel{};
    };
    const auto base =
        phy::user_task_costs(user, kCalibrationAntennas, false,
                             decode_at(phy::DegradeLevel::kNone))
            .total();
    if (base == 0)
        return 1.0;
    const auto degraded =
        phy::user_task_costs(user, kCalibrationAntennas, true,
                             decode_at(level))
            .total();
    return static_cast<double>(degraded) / static_cast<double>(base);
}

double
WorkloadEstimator::estimate_user(const phy::UserParams &user,
                                 phy::DegradeLevel level) const
{
    // shed_cost_ratio(user, kNone) is exactly 1.0, priced without
    // touching the op model.
    return static_cast<double>(user.prb) *
           table_.get(user.layers, user.mod) *
           shed_cost_ratio(user, level);
}

double
WorkloadEstimator::estimate_subframe(const phy::SubframeParams &subframe,
                                     std::size_t backlog,
                                     phy::DegradeLevel level) const
{
    double activity = 0.0;
    for (const auto &user : subframe.users)
        activity += estimate_user(user, level);
    ++stats_.subframe_estimates;
    if (level != phy::DegradeLevel::kNone)
        ++stats_.degraded_estimates;
    if (activity > 1.0)
        ++stats_.saturated_estimates;
    const double base = std::clamp(activity, 0.0, 1.0);
    if (backlog == 0)
        return base;
    const double boosted = std::clamp(
        base * (1.0 + static_cast<double>(backlog)), 0.0, 1.0);
    if (boosted > base)
        ++stats_.backlog_boosts;
    return boosted;
}

std::uint32_t
WorkloadEstimator::active_cores(double estimated_activity,
                                std::uint32_t max_cores,
                                std::uint32_t margin) const
{
    LTE_CHECK(max_cores >= 1, "need at least one core");
    const double raw =
        estimated_activity * static_cast<double>(max_cores) +
        static_cast<double>(margin);
    const auto cores = static_cast<std::uint32_t>(std::ceil(raw));
    // Floor at one core even with margin == 0: returning 0 would park
    // every worker, and parked cores cannot be woken remotely.
    const std::uint32_t floor =
        std::max<std::uint32_t>(1, std::min(margin, max_cores));
    ++stats_.core_decisions;
    if (cores < floor)
        ++stats_.clamped_low;
    if (cores > max_cores)
        ++stats_.clamped_high;
    return std::clamp<std::uint32_t>(cores, floor, max_cores);
}

} // namespace lte::mgmt
