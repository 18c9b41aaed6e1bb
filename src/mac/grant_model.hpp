/**
 * @file
 * The adapter that plugs the MAC into the engines' grant seam.
 *
 * GrantModel is a workload::ParameterModel whose next_subframe() draws
 * grants from a MacScheduler (next_tti_into), so every engine (serial,
 * work-stealing, streaming, multi-cell, offloaded-io) can be driven by
 * the closed loop through the seam the random models already use — no
 * engine changes.  The feedback seam needs no adapter: a MacScheduler
 * is itself the engine's SubframeFeedbackSink (EngineConfig::feedback).
 */
#ifndef LTE_MAC_GRANT_MODEL_HPP
#define LTE_MAC_GRANT_MODEL_HPP

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

} // namespace lte::mac

#endif // LTE_MAC_GRANT_MODEL_HPP
