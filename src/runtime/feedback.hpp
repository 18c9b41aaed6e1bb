/**
 * @file
 * The engine→MAC feedback seam.
 *
 * A closed-loop scheduler needs to see what the receiver actually did
 * with every grant it issued: which users' transport blocks passed
 * CRC (ACK/NACK for HARQ), the measured EVM (channel quality for
 * CQI→MCS adaptation), whether the decode ran degraded, and which
 * subframes never completed at all because the admission controller
 * shed them.  The engine has exactly one completion site and one shed
 * site; this interface lets a sink observe both without the runtime
 * depending on the MAC layer (src/mac links lte_runtime, not the other
 * way around).
 *
 * Threading: the engine invokes the sink from its dispatch thread
 * (the thread running run()/process_subframe()).  In offloaded-io
 * runs the *grant producer* is a different thread (the sample feed
 * draws parameters on the producer thread), so a sink that also
 * produces grants must synchronise internally — MacScheduler holds a
 * mutex; see tests/test_mac.cpp's tsan soak.
 */
#ifndef LTE_RUNTIME_FEEDBACK_HPP
#define LTE_RUNTIME_FEEDBACK_HPP

#include <cstdint>

#include "phy/params.hpp"
#include "runtime/run_record.hpp"

namespace lte::runtime {

/** Observer of per-subframe receiver outcomes and shed decisions. */
class SubframeFeedbackSink
{
  public:
    virtual ~SubframeFeedbackSink() = default;

    /**
     * One subframe finished processing.  @p outcome is the same
     * storage the engine is about to hand to its caller / append to
     * the RunRecord (per-user crc_ok / crc_modelled / evm_rms are
     * final).  @p level is the degrade level the chain actually ran
     * at (kNone unless the shed controller flipped the job).
     */
    virtual void on_subframe_complete(const SubframeOutcome &outcome,
                                      phy::DegradeLevel level) = 0;

    /**
     * One subframe was shed before (or instead of) completing:
     * admission-ring overflow, deadline expiry, or a sample-plane
     * frame lost at the producer.  The scheduler learns nothing about
     * the channel from a shed subframe, but its outstanding grants
     * must be resolved (MacScheduler treats every user in the shed
     * TTI as NACKed without a CQI update).
     */
    virtual void on_subframe_shed(std::uint32_t cell_id,
                                  std::uint64_t subframe_index) = 0;
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_FEEDBACK_HPP
