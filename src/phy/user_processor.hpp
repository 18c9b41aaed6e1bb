/**
 * @file
 * Per-user subframe processing — the paper's Fig. 3 chain with the
 * Fig. 5 task structure.
 *
 * A UserProcessor owns the receive-side state for one user's subframe
 * and exposes the exact task granularity of Sec. IV-C:
 *
 *   stage 1: n_antennas x n_layers channel-estimation tasks
 *   join:    combiner-weight computation (single task)
 *   stage 2: 6 x n_layers demodulation tasks (each handles the same
 *            data-symbol index in both slots: antenna combining + IFFT)
 *   tail:    per-codeblock tasks (deinterleave, soft demap,
 *            descramble, turbo pass-through) over disjoint LLR/bit
 *            slices, closed by a CRC/EVM reduce
 *   decode:  (real-turbo mode only) one max-log-MAP decode task per
 *            LTE code block (turbo_segment), each reading its own
 *            descrambled LLR slice and writing its own transport-block
 *            slice, between the tail tasks and the reduce
 *
 * Tasks within one stage touch disjoint state, so the stages may be
 * executed concurrently by different worker threads provided the
 * caller orders the stages (the work-stealing runtime chains them via
 * continuations; the serial engine simply calls process_all()).
 *
 * Memory model: a processor is a long-lived object that is re-bound
 * to a new (params, signal) pair every subframe via bind().  All
 * per-subframe buffers are spans carved from an internal bump arena
 * that grows only past its high-water mark, so steady-state subframe
 * processing performs zero heap allocations (DESIGN.md "Memory &
 * engine architecture").
 */
#ifndef LTE_PHY_USER_PROCESSOR_HPP
#define LTE_PHY_USER_PROCESSOR_HPP

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "common/workspace.hpp"
#include "phy/combiner.hpp"
#include "phy/params.hpp"
#include "phy/turbo.hpp"

namespace lte::phy {

/**
 * Received IQ samples for one user's allocation in one subframe:
 * antennas[a].slots[s][sym] holds the allocated subcarriers of SC-FDMA
 * symbol sym of slot s on antenna a (the front-end FFT and subcarrier
 * de-mapping of Fig. 2 are outside the benchmark, as in the paper).
 */
struct UserSignal
{
    struct Antenna
    {
        std::array<std::array<CVec, kSymbolsPerSlot>, kSlotsPerSubframe>
            slots;
    };
    std::vector<Antenna> antennas;

    /** Shape-check against user parameters; throws on mismatch. */
    void validate(const UserParams &params, std::size_t n_antennas) const;
};

/** Outcome of processing one user. */
struct UserResult
{
    std::uint32_t user_id = 0;
    /**
     * Decoded transport-block bits (CRC-24A included).  In
     * pass-through mode this is the whole hardened codeword
     * (capacity_bits); in real-turbo mode it is the transport block of
     * the LTE segmentation (turbo_segment(..).tb_bits(), per-block
     * CRC-24B stripped) — the *same* length whether the decode ran at
     * full budget, reduced iterations or the degraded bypass, so a
     * mid-stream degrade flip never changes the framing.
     */
    std::vector<std::uint8_t> bits;
    /** Transport-block CRC-24A check outcome. */
    bool crc_ok = false;
    /** True when crc_ok does not reflect a real decode: pass-through
     *  mode (no encoder upstream, the check runs on hardened random
     *  bits) or the degrade bypass (decode skipped).  Consumers doing
     *  link adaptation must substitute a modelled error rate. */
    bool crc_modelled = false;
    /** Total max-log-MAP iterations spent across the user's code
     *  blocks (0 in pass-through mode and under the bypass; CRC early
     *  termination makes this observably less than the budget). */
    std::uint32_t decode_iterations = 0;
    /** RMS error-vector magnitude over all data symbols (linear). */
    float evm_rms = 0.0f;
    /** Noise variance used for demapping. */
    float noise_var = 0.0f;
    /** FNV-1a digest of the decoded bits, for serial-vs-parallel
     *  validation (paper Sec. IV-D). */
    std::uint64_t checksum = 0;
};

/** FNV-1a over a bit vector (exposed for tests and validation). */
std::uint64_t bit_checksum(const std::vector<std::uint8_t> &bits);

class UserProcessor
{
  public:
    /**
     * Create an unbound processor holding only configuration; call
     * bind() before processing.  The same processor can be re-bound
     * every subframe, reusing its workspace.
     */
    explicit UserProcessor(const ReceiverConfig &config);

    /**
     * Legacy convenience: construct and bind in one step.
     *
     * @param params  the user's scheduling parameters
     * @param config  receiver configuration
     * @param signal  received samples; must outlive the processor
     */
    UserProcessor(const UserParams &params, const ReceiverConfig &config,
                  const UserSignal *signal);

    /**
     * (Re)bind to a user's subframe: validates shapes, sizes the
     * workspace (allocation-free once past the high-water mark), and
     * precomputes the DMRS references and deinterleave permutations.
     * @param signal must outlive the binding
     */
    void bind(const UserParams &params, const UserSignal *signal);

    /** Number of stage-1 tasks: antennas x layers. */
    std::size_t n_chanest_tasks() const;

    /** Number of stage-2 tasks: data symbols per slot (6) x layers. */
    std::size_t n_demod_tasks() const;

    /**
     * Stage-1 task: estimate the channel for one (antenna, layer) pair
     * in both slots (matched filter, IFFT, window, FFT).
     * Tasks with distinct indices may run concurrently.
     */
    void run_chanest_task(std::size_t task_index);

    /** Join stage: per-slot MMSE combiner weights; requires all
     *  stage-1 tasks complete. */
    void compute_weights();

    /**
     * Stage-2 task: antenna combining + IFFT for one (data-symbol,
     * layer) pair, processing both slots; requires compute_weights().
     */
    void run_demod_task(std::size_t task_index);

    /**
     * Number of parallel tail tasks: greedy ≤ kTailCodeblockBits
     * codeblocks of the canonical codeword (op_model's
     * tail_codeblock_count) in every mode — in real-turbo mode the
     * tail tasks produce the descrambled soft codeword and the decode
     * stage below consumes it.
     */
    std::size_t n_tail_tasks() const;

    /**
     * Tail task: deinterleave, soft-demap, descramble and harden one
     * codeblock into its disjoint LLR/bit slices, accumulating that
     * codeblock's EVM partial; requires all stage-2 tasks complete.
     * Tasks with distinct indices may run concurrently (scratch comes
     * from the per-thread kernel_scratch()).
     */
    void run_tail_task(std::size_t task_index);

    /**
     * Number of parallel decode tasks: the LTE code blocks of the
     * allocation in real-turbo mode, 0 in pass-through mode.  Stable
     * across degrade flips (a degraded decode task is the cheap
     * bypass, not a missing task), so join counters loaded at bind
     * time stay valid.
     */
    std::size_t n_decode_tasks() const;

    /**
     * Decode task: max-log-MAP decode of one code block from its
     * descrambled LLR slice into its disjoint transport-block slice
     * of the result (CRC-24B stripped for segmented blocks), with CRC
     * early termination and the degrade ladder's iteration budget;
     * requires all tail tasks complete.  Tasks with distinct indices
     * may run concurrently (decoder state comes from the per-thread
     * turbo_scratch()).
     */
    void run_decode_task(std::size_t block);

    /**
     * Reduce: fold the per-codeblock EVM partials in canonical order,
     * CRC-check and checksum the decoded bits; requires all tail
     * tasks complete.  The returned reference (into a reused member)
     * stays valid until the next bind().
     */
    const UserResult &finish_reduce();

    /**
     * Tail convenience: run every tail task in order, then reduce —
     * the same decomposition the parallel runtime executes, so serial
     * and parallel outputs are bit-identical.
     */
    const UserResult &finish();

    /** Serial convenience: run every stage in order. */
    const UserResult &process_all();

    /**
     * Degrade ladder (admission-controller load shedding): at
     * kReducedIterations the combiner weights fall back from MMSE to
     * per-layer MRC and the decoder runs at the reduced iteration
     * budget; kBypass additionally hard-decides the systematic bits
     * instead of decoding.  Takes effect at the next
     * compute_weights()/decode; cleared by every bind-time reset.
     * Neither level changes any task count or the result framing.
     */
    void set_degrade(DegradeLevel level) { degrade_ = level; }
    DegradeLevel degrade() const { return degrade_; }

    const UserParams &params() const { return params_; }
    const ReceiverConfig &config() const { return config_; }

    /**
     * Equalised time-domain samples of (slot, layer, data symbol) as
     * the tail reads them, before deinterleaving; valid once the
     * stage-2 tasks have run (observability/tests).
     */
    CfView equalised(std::size_t slot, std::size_t layer,
                     std::size_t data_symbol) const;

  private:
    void demod_one(std::size_t slot, std::size_t data_symbol,
                   std::size_t layer);

    /** Channel frequency response of (slot, antenna, layer). */
    CfSpan channel_slice(std::size_t slot, std::size_t antenna,
                         std::size_t layer);

    /** Equalised time-domain samples of (slot, layer, data symbol). */
    CfSpan equalised_slice(std::size_t slot, std::size_t layer,
                           std::size_t data_symbol);

    UserParams params_;
    ReceiverConfig config_;
    const UserSignal *signal_ = nullptr;
    bool bound_ = false;
    DegradeLevel degrade_ = DegradeLevel::kNone;

    /** Bump arena backing every per-subframe span below. */
    Workspace arena_;

    /** dmrs_[slot][layer]: the layer's known reference sequence. */
    std::array<std::array<CfSpan, kMaxLayers>, kSlotsPerSubframe> dmrs_;
    /** channel_[slot]: flat [antenna][layer][sc] frequency response. */
    std::array<CfSpan, kSlotsPerSubframe> channel_;
    /** equalised_[slot]: flat [layer][data_symbol][sc] time samples. */
    std::array<CfSpan, kSlotsPerSubframe> equalised_;
    /** perm_[slot]: deinterleave permutation for the slot's width. */
    std::array<std::span<std::size_t>, kSlotsPerSubframe> perm_;
    /** Soft bits for the whole subframe (capacity_bits of them). */
    LlrSpan llrs_;

    /**
     * One tail codeblock: a run of consecutive (slot, layer,
     * data-symbol) blocks of the canonical codeword and the LLR/bit
     * slice they produce.  Built at bind() (capacity reused across
     * binds); slices are disjoint, so tail tasks never share state.
     */
    struct CodeblockSlice
    {
        std::uint32_t first_block = 0;
        std::uint32_t n_blocks = 0;
        std::size_t bit_offset = 0;
        std::size_t n_bits = 0;
    };
    std::vector<CodeblockSlice> codeblocks_;

    /** Real-turbo code-block segmentation of the bound allocation
     *  (meaningful only when config_.use_real_turbo). */
    TurboSegmentation seg_{};
    /** Interleaver for seg_.block_info_bits, resolved at bind() from
     *  the process-wide cache (stable reference, zero-alloc lookup). */
    const QppInterleaver *turbo_pi_ = nullptr;
    /** Iterations each decode task actually ran (early termination),
     *  folded into result_.decode_iterations by finish_reduce() in
     *  canonical order. */
    std::array<std::uint32_t, kMaxTurboCodeblocks> cb_iterations_{};

    /** Upper bound on codeblocks: one per (slot, layer, data symbol). */
    static constexpr std::size_t kMaxTailTasks =
        kSlotsPerSubframe * kMaxLayers * kDataSymbolsPerSlot;
    /** Per-codeblock EVM partials, folded by finish_reduce() in
     *  canonical order so the sum is schedule-independent. */
    std::array<double, kMaxTailTasks> evm_acc_{};
    std::array<std::size_t, kMaxTailTasks> evm_n_{};

    /** Noise-variance estimates from each chanest task. */
    std::array<float,
               kMaxRxAntennas * kMaxLayers * kSlotsPerSubframe>
        task_noise_{};
    float noise_var_ = 0.0f;
    std::array<CombinerWeights, kSlotsPerSubframe> weights_;

    /** Reused result storage; bits keeps its capacity across binds. */
    UserResult result_;
};

} // namespace lte::phy

#endif // LTE_PHY_USER_PROCESSOR_HPP
