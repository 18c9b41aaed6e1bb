/**
 * @file
 * Analytical operation counts for the per-user task graph.
 *
 * The discrete-event TILEPro64 simulator charges each task a cycle
 * cost derived from these flop counts (DESIGN.md Sec. 3).  The counts
 * are computed from the same algorithmic structure the real kernels
 * use, with one deliberate smoothing: FFT stages are charged at the
 * padded next-5-smooth size (fft::Fft::op_count_smooth), the strategy
 * production SC-FDMA receivers use for awkward allocation sizes.
 * This keeps cost linear in PRBs — matching the clean linear
 * behaviour the paper measures in Fig. 11 — instead of inheriting the
 * exact library's direct-DFT/Bluestein cliffs at prime sizes.
 */
#ifndef LTE_PHY_OP_MODEL_HPP
#define LTE_PHY_OP_MODEL_HPP

#include <cstdint>

#include "phy/params.hpp"

namespace lte::phy {

/**
 * Greedy codeblock target for the parallel tail: consecutive
 * (slot, layer, data-symbol) blocks of the canonical codeword are
 * packed into codeblocks of at most this many soft bits (the LTE
 * turbo-codeblock ceiling), one tail task per codeblock.  A single
 * symbol block wider than the target becomes its own codeblock, so
 * the minimum granularity is one data symbol.
 */
inline constexpr std::size_t kTailCodeblockBits = 6144;

/**
 * Number of tail codeblocks the greedy segmentation produces for this
 * user (UserProcessor::n_tail_tasks() in pass-through mode).
 */
std::size_t tail_codeblock_count(const UserParams &params);

/**
 * What the model charges for the decode stage (real turbo only).
 * Pass-through mode keeps the default: no decode tasks, decode cost
 * folded into the tail's harden term as before.
 */
struct DecodeModel
{
    /** Real turbo decoder on (adds per-codeblock decode tasks). */
    bool real_turbo = false;
    /** Max-log-MAP iteration budget per codeblock; 0 charges only the
     *  degraded hard-decision bypass. */
    std::uint32_t iterations = 0;
};

/** Flop counts for one user's subframe processing, per task kind. */
struct UserTaskCosts
{
    /** One (antenna, layer) channel-estimation task (both slots). */
    std::uint64_t chanest_task = 0;
    /** The combiner-weight join stage. */
    std::uint64_t weights = 0;
    /** One (data-symbol, layer) demodulation task (both slots). */
    std::uint64_t demod_task = 0;
    /**
     * The whole tail (deinterleave, demap, descramble, harden, CRC).
     * Kept as the aggregate for user-granularity consumers; the
     * runtime and the DAG simulator split it as
     * tail == tail_task * n_tail_tasks + tail_reduce exactly.
     */
    std::uint64_t tail = 0;
    /** One per-codeblock tail task (deint/demap/descramble/harden). */
    std::uint64_t tail_task = 0;
    /** The CRC/EVM reduce continuation closing the user. */
    std::uint64_t tail_reduce = 0;
    /** One per-codeblock max-log-MAP decode task (real turbo; the
     *  iteration budget of the DecodeModel is priced in). */
    std::uint64_t decode_task = 0;

    std::uint32_t n_chanest_tasks = 0;
    std::uint32_t n_demod_tasks = 0;
    std::uint32_t n_tail_tasks = 0;
    /** Turbo code blocks (0 in pass-through mode). */
    std::uint32_t n_decode_tasks = 0;

    /** Total flops for the user's subframe. */
    std::uint64_t
    total() const
    {
        return chanest_task * n_chanest_tasks + weights +
               demod_task * n_demod_tasks + tail +
               decode_task * n_decode_tasks;
    }
};

/**
 * Flops the model charges for one n x n complex matrix inverse (the
 * per-subcarrier MMSE solve): Gauss-Jordan on [A | I] is ~2n^3
 * complex multiply-accumulates at 8 flops each.
 */
std::uint64_t matrix_inverse_op_count(std::size_t n);

/**
 * Compute the cost model for one user.  @p degraded selects the
 * load-shed receive chain (per-layer MRC weights instead of the MMSE
 * solve).  @p decode prices the real-turbo decode stage: with
 * real_turbo set, every LTE code block of the user's allocation
 * (turbo_segment) is charged one decode task whose cost grows
 * linearly with the iteration budget — at 0 iterations only the
 * bypass harden.  The default DecodeModel reproduces the historical
 * pass-through charge exactly.
 */
UserTaskCosts user_task_costs(const UserParams &params,
                              std::size_t n_antennas,
                              bool degraded = false,
                              const DecodeModel &decode = {});

/**
 * The DecodeModel a receiver configuration implies at a shed-ladder
 * level: pass-through receivers price no decode stage; real-turbo
 * receivers price turbo_iterations_for(level).
 */
inline DecodeModel
decode_model(const ReceiverConfig &config,
             DegradeLevel level = DegradeLevel::kNone)
{
    if (!config.use_real_turbo)
        return {};
    return DecodeModel{true, turbo_iterations_for(level)};
}

} // namespace lte::phy

#endif // LTE_PHY_OP_MODEL_HPP
