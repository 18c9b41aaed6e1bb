/**
 * @file
 * Bit-level scrambling with the LTE length-31 Gold sequence
 * (3GPP TS 36.211 Sec. 7.2).  The uplink scrambles the codeword bits
 * before modulation so that inter-cell interference looks like noise;
 * the receiver descrambles in the soft domain by flipping LLR signs.
 */
#ifndef LTE_PHY_SCRAMBLER_HPP
#define LTE_PHY_SCRAMBLER_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lte::phy {

/**
 * Streaming generator of the TS 36.211 Sec. 7.2 pseudo-random sequence
 * c(n): two length-31 LFSRs advanced Nc = 1600 steps past
 * initialisation.  O(1) state, no heap — the register bit i holds
 * x(n + i).  The generator is word-parallel: one next_block() call
 * yields kBlockBits sequence bits, because both recurrences reach at
 * most 3 taps ahead, so a 31-bit register holds the inputs of 28 new
 * feedback bits at once.
 */
class GoldStream
{
  public:
    /** Sequence bits produced per next_block() call. */
    static constexpr std::size_t kBlockBits = 28;

    explicit GoldStream(std::uint32_t c_init)
        : x1_(1u), x2_(c_init & 0x7FFFFFFFu)
    {
        skip(kNc);
    }

    /**
     * The next kBlockBits sequence bits: bit i of the result is
     * c(n + i).  Each register shifts down 28 places and takes 28
     * feedback bits, computed word-wide from
     *   x1(n+31) = x1(n+3) + x1(n)
     *   x2(n+31) = x2(n+3) + x2(n+2) + x2(n+1) + x2(n)   (mod 2)
     * for n .. n + 27 (the highest tap read is bit 30).
     */
    std::uint32_t
    next_block()
    {
        constexpr std::uint32_t kMask = (1u << kBlockBits) - 1u;
        const std::uint32_t c = (x1_ ^ x2_) & kMask;
        const std::uint32_t f1 = ((x1_ >> 3) ^ x1_) & kMask;
        const std::uint32_t f2 =
            ((x2_ >> 3) ^ (x2_ >> 2) ^ (x2_ >> 1) ^ x2_) & kMask;
        x1_ = (x1_ >> kBlockBits) | (f1 << 3);
        x2_ = (x2_ >> kBlockBits) | (f2 << 3);
        return c;
    }

    /**
     * Skip the next @p n sequence bits in O(log n): both LFSRs jump
     * via precomputed GF(2) state-transition matrices for power-of-two
     * step counts, so fast-forwarding to a codeword offset costs a few
     * hundred word operations regardless of the offset.  This is what
     * lets per-codeblock tail tasks descramble their own slice
     * independently — with T codeblocks a linear skip would make the
     * tail O(bits x T) in aggregate and dominate the whole receiver.
     */
    void skip(std::size_t n);

  private:
    static constexpr int kNc = 1600;

    /** One single-bit step of both registers (short skips). */
    void
    advance()
    {
        const std::uint32_t n1 = ((x1_ >> 3) ^ x1_) & 1u;
        const std::uint32_t n2 =
            ((x2_ >> 3) ^ (x2_ >> 2) ^ (x2_ >> 1) ^ x2_) & 1u;
        x1_ = (x1_ >> 1) | (n1 << 30);
        x2_ = (x2_ >> 1) | (n2 << 30);
    }

    std::uint32_t x1_;
    std::uint32_t x2_;
};

/**
 * Pseudo-random sequence c(n) per TS 36.211 Sec. 7.2: two length-31
 * LFSRs advanced Nc = 1600 steps past initialisation.
 *
 * @param c_init initial state of the second LFSR (31 bits)
 * @param length number of sequence bits to produce
 */
std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init,
                                        std::size_t length);

/** Scrambling initialiser for a user (RNTI-style composition). */
std::uint32_t scrambling_init(std::uint32_t user_id,
                              std::uint32_t cell_id = 1);

/** XOR @p bits with the Gold sequence (an involution). */
std::vector<std::uint8_t> scramble(const std::vector<std::uint8_t> &bits,
                                   std::uint32_t c_init);

/**
 * In-place soft descrambling: negate the LLRs whose scrambling bit is
 * 1 (a scrambled 0 arrives as 1 and vice versa).  The negation XORs
 * the float's sign bit, which is bit-identical to `v = -v` for every
 * value, ±0, ±inf and NaN included, and needs no branch per LLR.
 */
void descramble_soft_inplace(LlrSpan llrs, std::uint32_t c_init);

/**
 * In-place soft descrambling of a codeword slice starting
 * @p skip_bits into the sequence: @p llrs holds positions
 * [skip_bits, skip_bits + llrs.size()) of the full codeword.
 */
void descramble_soft_inplace(LlrSpan llrs, std::uint32_t c_init,
                             std::size_t skip_bits);

} // namespace lte::phy

#endif // LTE_PHY_SCRAMBLER_HPP
