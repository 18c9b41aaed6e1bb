/**
 * @file
 * Turbo coding stage.
 *
 * The paper's benchmark deliberately passes data straight through the
 * turbo-decoding step because base stations run it on dedicated
 * hardware (Sec. IV-C.2).  We provide that pass-through as the default
 * *and* a real LTE-style rate-1/3 turbo codec as an extension:
 * two 8-state RSC constituent encoders (g0 = 1 + D^2 + D^3,
 * g1 = 1 + D + D^3, TS 36.212 Sec. 5.1.3.2) linked by a quadratic
 * permutation polynomial (QPP) interleaver, decoded with iterative
 * max-log-MAP.
 *
 * The decoder is a hot-path kernel (DESIGN.md Sec. 3h): the 8-state
 * alpha/beta/LLR recursions run in saturating 16-bit fixed point
 * vectorized over the trellis states (`simd::v8s`, the whole state
 * column in one SSE register) with a bit-identical scalar twin, all
 * state lives in a per-thread
 * `TurboWorkspace` so steady-state decode allocates nothing, and
 * decoding stops early once the attached CRC checks.  Transport
 * blocks larger than the 6144-bit trellis limit are segmented into
 * equal-size code blocks (CRC-24B per block, CRC-24A on the transport
 * block) that the runtime decodes as parallel tasks.
 *
 * Deviation from the spec, documented in DESIGN.md: instead of
 * embedding the 188-row QPP parameter table of TS 36.212 Table 5.1.3-3,
 * parameters for arbitrary block sizes are found by a deterministic
 * search that verifies the polynomial is a bijection; the two anchor
 * rows we embed (K = 40 and K = 6144) match the spec.
 */
#ifndef LTE_PHY_TURBO_HPP
#define LTE_PHY_TURBO_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "phy/params.hpp"

namespace lte::phy {

/** Tail bits appended by trellis termination (both encoders). */
inline constexpr std::size_t kTurboTailBits = 12;

/** Largest constituent block the LTE trellis supports (TS 36.212). */
inline constexpr std::size_t kMaxTurboBlockBits = 6144;

/** Upper bound on code blocks per user: the largest allocation
 *  (200 PRB x 4 layers x 64QAM = 345600 coded bits) segments into 19
 *  blocks; 32 leaves headroom for fixed-size per-block tallies. */
inline constexpr std::size_t kMaxTurboCodeblocks = 32;

/** @return encoded length for @p k info bits: 3k + 12. */
constexpr std::size_t
turbo_encoded_length(std::size_t k)
{
    return 3 * k + kTurboTailBits;
}

/**
 * LTE-style code-block segmentation of one user's coded-bit capacity
 * (TS 36.212 Sec. 5.1.2 shape, equal-size blocks): the smallest block
 * count whose per-block info size fits the 6144-bit trellis.  With
 * more than one block each K-bit block carries K-24 transport-block
 * bits plus its own CRC-24B; a single block carries the transport
 * block directly.  The transport block itself ends in CRC-24A.
 */
struct TurboSegmentation
{
    std::size_t n_blocks = 1;        ///< C, code blocks
    std::size_t block_info_bits = 0; ///< K, constituent block size

    /** Coded bits of one block. */
    std::size_t
    block_coded_bits() const
    {
        return turbo_encoded_length(block_info_bits);
    }

    /** Transport-block bits carried per block (CRC-24B stripped). */
    std::size_t
    block_data_bits() const
    {
        return n_blocks > 1 ? block_info_bits - 24 : block_info_bits;
    }

    /** Coded bits of the whole segmented allocation (<= capacity). */
    std::size_t
    coded_bits() const
    {
        return n_blocks * block_coded_bits();
    }

    /** Transport block incl. its CRC-24A, excl. per-block CRC-24B. */
    std::size_t
    tb_bits() const
    {
        return n_blocks * block_data_bits();
    }
};

/** Segment @p capacity coded bits (checks a transport block fits). */
TurboSegmentation turbo_segment(std::size_t capacity);

/**
 * QPP interleaver pi(i) = (f1*i + f2*i^2) mod k.
 */
class QppInterleaver
{
  public:
    /**
     * Build an interleaver for block size @p k (a positive multiple of
     * 8, matching the granularity of the TS 36.212 size table), finding
     * valid (f1, f2) deterministically.
     */
    explicit QppInterleaver(std::size_t k);

    std::size_t size() const { return perm_.size(); }
    std::uint32_t f1() const { return f1_; }
    std::uint32_t f2() const { return f2_; }

    /** pi(i). */
    std::size_t map(std::size_t i) const { return perm_[i]; }

  private:
    std::uint32_t f1_ = 0;
    std::uint32_t f2_ = 0;
    std::vector<std::size_t> perm_;
};

/**
 * Process-wide interleaver cache.  The QPP parameter search is a
 * one-time cost per block size; decode tasks must not pay (or
 * allocate) it.  The returned reference is stable for the process
 * lifetime; lookup of a cached size performs no allocation, so
 * per-subframe `UserProcessor::bind()` stays zero-alloc once every
 * block size in the workload has been seen.  Thread-safe.
 */
const QppInterleaver &qpp_interleaver(std::size_t k);

/**
 * Rate-1/3 turbo encoder.
 *
 * Output layout (our own, coherent with the decoder):
 *   [ x_0..x_{k-1} | z_0..z_{k-1} | z'_0..z'_{k-1} | 12 tail bits ]
 * where x is systematic, z parity of encoder 1, z' parity of encoder 2,
 * and the tail holds (x, z) x3 for encoder 1 then (x', z') x3 for
 * encoder 2.
 */
std::vector<std::uint8_t> turbo_encode(const std::vector<std::uint8_t> &info);

/** Decoder configuration. */
struct TurboDecoderConfig
{
    std::size_t iterations = turbo_iterations_for(DegradeLevel::kNone);
    /** Run the scalar twin even when the SIMD backend is available
     *  (parity tests and the scalar benchmark baseline). */
    bool force_scalar = false;
};

/**
 * Per-thread decoder state: trellis metrics, extrinsics and the
 * (de)interleaved streams of one constituent block, grow-only like the
 * kernel scratch so steady-state decode performs no allocations.
 * Workers warm it to `kMaxTurboBlockBits` at start-up
 * (`warm_turbo_scratch`).
 */
class TurboWorkspace
{
  public:
    /** Ensure capacity for a @p k-bit constituent block (grow-only). */
    void reserve(std::size_t k);

    // Decoder scratch, sized by reserve(); see turbo.cpp for roles.
    // The trellis recursions run in saturating 16-bit fixed point
    // (quantized per pass), so metric scratch is int16.
    std::vector<std::int16_t> alpha; ///< (k+1) x 8 forward metrics
    std::vector<std::int16_t> beta;  ///< backward branch-sum staging
    std::vector<std::int16_t> gamma; ///< k x 4 quantized metric rows
    std::vector<float> sys;        ///< systematic channel LLRs
    std::vector<float> par1;       ///< parity LLRs, encoder 1
    std::vector<float> par2;       ///< parity LLRs, encoder 2
    std::vector<float> sys_pi;     ///< interleaved systematic
    std::vector<float> ext12;      ///< extrinsic decoder 1 -> 2
    std::vector<float> ext21;      ///< extrinsic decoder 2 -> 1
    std::vector<float> in;         ///< a-priori-augmented input
    std::vector<float> post;       ///< a-posteriori of the last pass
    std::vector<float> post_deint; ///< deinterleaved posterior
    std::vector<std::uint8_t> bits; ///< per-iteration hard decision

  private:
    std::size_t block_capacity_ = 0;
};

/** The calling thread's decode workspace (lazily constructed). */
TurboWorkspace &turbo_scratch();

/** Pre-size the calling thread's workspace for the largest block, so
 *  no decode on this thread ever grows it (worker start-up). */
void warm_turbo_scratch();

/** Outcome of one code-block decode. */
struct TurboDecodeResult
{
    /** Full iterations executed (early termination stops short; 0 for
     *  the hard-decision bypass path). */
    std::uint32_t iterations_run = 0;
    /** Result of the last CRC check (false when @p crc_poly was 0). */
    bool crc_ok = false;
};

/**
 * Iterative max-log-MAP decode of one constituent block into @p out,
 * allocation-free: all state comes from @p ws.
 *
 * @param coded    3k+12 channel LLRs laid out as by turbo_encode()
 * @param k        information bits; @p out must hold exactly k
 * @param pi       interleaver for block size k (see qpp_interleaver)
 * @param cfg      iteration budget / damping / scalar-twin switch
 * @param crc_poly when non-zero, the hard decision is CRC-checked
 *                 after every iteration and decoding stops early on a
 *                 pass (CRC-24B for segmented blocks, CRC-24A when the
 *                 block is the whole transport block); 0 disables
 *                 early termination
 * @param ws       per-thread workspace (reserved to >= k)
 *
 * With cfg.iterations == 0 the systematic LLRs are hard-decided
 * directly — the degraded-mode bypass, cheap but uncoded.
 */
TurboDecodeResult turbo_decode_block_into(LlrView coded, std::size_t k,
                                          const QppInterleaver &pi,
                                          const TurboDecoderConfig &cfg,
                                          std::uint32_t crc_poly,
                                          TurboWorkspace &ws, BitSpan out);

/**
 * The pass-through "decoder" used by the benchmark pipeline by default
 * (paper Sec. IV-C.2): hard-decide one LLR per (uncoded) bit into
 * @p out, which must match @p llrs in length.
 */
void turbo_passthrough_into(LlrView llrs, BitSpan out);

} // namespace lte::phy

#endif // LTE_PHY_TURBO_HPP
