/**
 * @file
 * Shared pieces of the receiver benchmark: command-line arguments, the
 * result report, order statistics, and the two probes the workloads
 * attach from outside the engines — a timing ParameterModel decorator
 * and a preallocated completion sink.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "phy/params.hpp"
#include "runtime/feedback.hpp"
#include "workload/parameter_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary process-wide origin. */
std::int64_t now_ns();

/** Seconds elapsed since @p start. */
double seconds_since(Clock::time_point start);

struct Args
{
    std::string workload;
    std::uint64_t seed = 2012;
    double seconds = 10.0;
    bool trace = false;
};

/** Metrics, facts and gate values of one benchmark invocation. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void fact(const std::string &name, const std::string &value);
    /** A value run.py compares against gates.json (pinned seeds). */
    void gate_value(const std::string &name, const std::string &value);
    /** Record a failed correctness check; the run then exits non-zero
     *  before any metric is printed. */
    void fail(const std::string &why);

    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Human-readable lines followed by one "RESULT {...}" line. */
    void print(std::ostream &os) const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::pair<std::string, std::string>> facts_;
    std::map<std::string, std::string> gates_;
    std::vector<std::string> failures_;
};

/** Linear-interpolated quantile (q in [0, 1]) of @p values; 0 when
 *  empty.  Sorts a copy. */
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set of this process in MiB (getrusage). */
double peak_rss_mb();

/** 16-hex-digit rendering of a digest. */
std::string hex64(std::uint64_t value);

/** FNV-style order-sensitive fold of @p value into @p digest. */
std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t value);

/**
 * ParameterModel decorator: forwards to the wrapped model and stamps
 * the steady-clock time at which each subframe index was drawn (on
 * whichever thread pulls the model).  Storage is preallocated for
 * @p capacity indices; draws past it are forwarded but not stamped.
 */
class TimedModel final : public lte::workload::ParameterModel
{
  public:
    TimedModel(lte::workload::ParameterModel &inner, std::size_t capacity);

    lte::phy::SubframeParams next_subframe() override;
    void reset() override;

    /** Draw time of subframe @p index in now_ns() units (0 = never). */
    std::int64_t drawn_ns(std::size_t index) const
    {
        return index < drawn_.size() ? drawn_[index] : 0;
    }

  private:
    lte::workload::ParameterModel &inner_;
    std::vector<std::int64_t> drawn_;
};

/**
 * Feedback sink recording, per (cell lane, subframe index), the
 * completion time and the degrade level the chain ran at (shed
 * subframes simply never complete).  Cell ids are
 * 1..n_cells (lane = cell_id - 1).  Preallocated; invoked only from the
 * engine's dispatch thread.
 */
class CompletionSink final : public lte::runtime::SubframeFeedbackSink
{
  public:
    CompletionSink(std::size_t n_cells, std::size_t capacity);

    void on_subframe_complete(const lte::runtime::SubframeOutcome &outcome,
                              lte::phy::DegradeLevel level) override;
    void on_subframe_shed(std::uint32_t cell_id,
                          std::uint64_t subframe_index) override;

    /** Completion time in now_ns() units (0 = not completed). */
    std::int64_t completed_ns(std::size_t lane, std::size_t index) const;
    lte::phy::DegradeLevel level(std::size_t lane, std::size_t index) const;

  private:
    std::size_t capacity_;
    std::vector<std::int64_t> done_;
    std::vector<lte::phy::DegradeLevel> level_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
