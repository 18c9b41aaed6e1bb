#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace lte {

void
RunningStats::add(double x)
{
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::clear()
{
    *this = RunningStats{};
}

double
RunningStats::variance() const
{
    if (n_ == 0)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    LTE_CHECK(hi > lo, "histogram range must be non-empty");
    LTE_CHECK(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    // A NaN or infinite sample must not reach the integer cast below:
    // converting a non-finite double (or one beyond the target range)
    // to an integer is undefined behaviour, so clamp while still in
    // floating point and reject non-finite values outright.
    if (!std::isfinite(x)) {
        ++non_finite_;
        return;
    }
    const double frac = (x - lo_) / (hi_ - lo_);
    const double scaled = std::clamp(
        frac * static_cast<double>(counts_.size()), 0.0,
        static_cast<double>(counts_.size()) - 1.0);
    const auto bin = static_cast<std::size_t>(scaled);
    ++counts_[bin];
    ++total_;
}

double
Histogram::bin_center(std::size_t bin) const
{
    LTE_CHECK(bin < counts_.size(), "bin out of range");
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

} // namespace lte
