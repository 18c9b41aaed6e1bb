/**
 * @file
 * Adapters that plug the MAC into the engines' two seams.
 *
 * GrantSource side: GrantModel is a workload::ParameterModel whose
 * next_subframe() draws grants from a MacScheduler, so every engine
 * (serial, work-stealing, streaming, multi-cell, offloaded-io) can be
 * driven by the closed loop through the seam the random models already
 * use — no engine changes.
 *
 * Feedback side: FeedbackRouter fans one engine-wide
 * SubframeFeedbackSink out to per-cell MacSchedulers by cell id, for
 * multi-cell runs where each cell owns its own MAC.
 */
#ifndef LTE_MAC_GRANT_MODEL_HPP
#define LTE_MAC_GRANT_MODEL_HPP

#include <array>
#include <atomic>
#include <cstdint>

#include "mac/scheduler.hpp"
#include "workload/parameter_model.hpp"

namespace lte::mac {

/** ParameterModel view of a MacScheduler (see file comment). */
class GrantModel final : public workload::ParameterModel
{
  public:
    /** Grants come from @p scheduler (borrowed, must outlive the
     *  model). */
    explicit GrantModel(MacScheduler &scheduler)
        : scheduler_(&scheduler)
    {
    }

    phy::SubframeParams
    next_subframe() override
    {
        scheduler_->next_tti_into(scratch_);
        return scratch_;
    }

    void reset() override { scheduler_->reset(); }

  private:
    MacScheduler *scheduler_ = nullptr;
    phy::SubframeParams scratch_;
};

/**
 * Routes engine feedback to per-cell sinks by cell id (1..511).
 * Registration happens at setup; delivery is a table lookup, safe from
 * the dispatch thread.  Unrouted cells are counted, not dropped
 * silently.
 */
class FeedbackRouter final : public runtime::SubframeFeedbackSink
{
  public:
    void
    attach(std::uint32_t cell_id, runtime::SubframeFeedbackSink &sink)
    {
        if (cell_id < sinks_.size())
            sinks_[cell_id] = &sink;
    }

    void
    on_subframe_complete(const runtime::SubframeOutcome &outcome,
                         phy::DegradeLevel level) override
    {
        runtime::SubframeFeedbackSink *sink =
            outcome.cell_id < sinks_.size() ? sinks_[outcome.cell_id]
                                            : nullptr;
        if (sink != nullptr)
            sink->on_subframe_complete(outcome, level);
        else
            unrouted_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    on_subframe_shed(std::uint32_t cell_id,
                     std::uint64_t subframe_index) override
    {
        runtime::SubframeFeedbackSink *sink =
            cell_id < sinks_.size() ? sinks_[cell_id] : nullptr;
        if (sink != nullptr)
            sink->on_subframe_shed(cell_id, subframe_index);
        else
            unrouted_.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t
    unrouted() const
    {
        return unrouted_.load(std::memory_order_relaxed);
    }

  private:
    std::array<runtime::SubframeFeedbackSink *, 512> sinks_{};
    std::atomic<std::uint64_t> unrouted_{0};
};

} // namespace lte::mac

#endif // LTE_MAC_GRANT_MODEL_HPP
