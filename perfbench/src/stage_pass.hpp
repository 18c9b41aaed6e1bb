/**
 * @file
 * The serial per-stage pass: one thread drives UserProcessor's public
 * stage calls (run_chanest_task, compute_weights, run_demod_task,
 * run_tail_task, run_decode_task, finish_reduce) over a fixed sample of
 * a workload's subframes, timing each stage and pricing it with the op
 * model.  Its per-user checksums are the serial reference the engine
 * runs are checked against.
 */
#ifndef PERFBENCH_STAGE_PASS_HPP
#define PERFBENCH_STAGE_PASS_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"

namespace perfbench {

enum Stage : std::size_t
{
    kChanEst,
    kWeights,
    kDemod,
    kTail,
    kDecode,
    kReduce,
    kStageCount
};

extern const char *const kStageNames[kStageCount];

/** One sampled subframe with the exact input the engine saw. */
struct StageSample
{
    lte::phy::SubframeParams params;
    std::vector<const lte::phy::UserSignal *> signals;
};

struct StagePassResult
{
    std::array<double, kStageCount> seconds{};
    std::array<double, kStageCount> flops{};
    std::size_t subframes = 0;
    std::size_t users = 0;
    std::uint64_t decode_iterations = 0;
    std::uint64_t decode_blocks = 0;
    std::size_t crc_ok = 0;
    /** checksums[s][u]: user u of sample s. */
    std::vector<std::vector<std::uint64_t>> checksums;

    double total_seconds() const;
    /** Serial milliseconds per subframe over every stage. */
    double ms_per_subframe() const;
};

/** Run the pass; @p receiver's cell_id is replaced by each sample's
 *  params.cell_id. */
StagePassResult run_stage_pass(const lte::phy::ReceiverConfig &receiver,
                               const std::vector<StageSample> &samples);

/** phy.<stage>.*, opmodel.<stage>.pred_share, phy.decode.iters_per_cb,
 *  phy.crc_pass_frac and phy.serial_ms_per_sf. */
void report_stage_pass(const StagePassResult &result, double peak_gflops,
                       Report &report);

} // namespace perfbench

#endif // PERFBENCH_STAGE_PASS_HPP
