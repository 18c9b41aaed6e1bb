/**
 * @file
 * Streaming statistics helpers used by the series reports and the
 * benchmark harnesses.
 */
#ifndef LTE_COMMON_STATS_HPP
#define LTE_COMMON_STATS_HPP

#include <cstddef>
#include <limits>
#include <vector>

namespace lte {

/**
 * Welford-style running mean/variance with min/max tracking.
 */
class RunningStats
{
  public:
    /** Fold one sample into the statistics. */
    void add(double x);

    /** Reset to the empty state. */
    void clear();

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance. */
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Simple fixed-capacity histogram over [lo, hi) with uniform bins.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    /** Count a sample; out-of-range samples clamp to the edge bins.
     *  Non-finite samples (NaN, +/-inf) are tallied separately and do
     *  not land in any bin. */
    void add(double x);

    std::size_t bin_count() const { return counts_.size(); }
    std::size_t count(std::size_t bin) const { return counts_.at(bin); }
    /** Samples counted into bins (excludes non-finite samples). */
    std::size_t total() const { return total_; }
    /** NaN/inf samples rejected by add(). */
    std::size_t non_finite() const { return non_finite_; }
    /** Center value of a bin. */
    double bin_center(std::size_t bin) const;

  private:
    double lo_, hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
    std::size_t non_finite_ = 0;
};

} // namespace lte

#endif // LTE_COMMON_STATS_HPP
