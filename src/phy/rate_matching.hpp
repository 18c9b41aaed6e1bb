/**
 * @file
 * Turbo-code rate matching (3GPP TS 36.212 Sec. 5.1.4.1): the three
 * coded streams are sub-block interleaved (32 columns, the spec's
 * column permutation), interlaced into a circular buffer, and the
 * transmitter reads any number of bits starting at a redundancy-
 * version offset.  The soft inverse accumulates received LLRs back
 * into encoder-layout positions, which gives HARQ chase/IR combining
 * for free: repeated transmissions of the same bit simply add.
 *
 * Deviation (documented in DESIGN.md): the spec distributes the
 * twelve trellis-termination bits across the three streams in an
 * interleaved order; we use a fixed assignment consistent between
 * select() and accumulate(), which is sufficient for a self-contained
 * codec (no over-the-air interop is claimed).
 */
#ifndef LTE_PHY_RATE_MATCHING_HPP
#define LTE_PHY_RATE_MATCHING_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "phy/turbo.hpp"

namespace lte::phy {

class RateMatcher
{
  public:
    /** Build the circular-buffer permutation for @p k_info info bits
     *  (a valid turbo block size). */
    explicit RateMatcher(std::size_t k_info);

    std::size_t k_info() const { return k_; }

    /** Circular-buffer length including NULL padding. */
    std::size_t buffer_size() const { return cb_.size(); }

    /** Coded bits available (3 * k + 12, the turbo_encode output). */
    std::size_t coded_size() const { return turbo_encoded_length(k_); }

    /**
     * Select @p e_bits transmission bits for redundancy version
     * @p rv (0..3) from a turbo_encode() output.  Wraps around the
     * circular buffer, so e_bits may exceed coded_size() (repetition)
     * or be smaller (puncturing).
     */
    std::vector<std::uint8_t>
    select(BitView turbo_coded, std::size_t e_bits, unsigned rv) const;

    /** A zeroed soft buffer in turbo_encode() layout. */
    std::vector<Llr> empty_soft_buffer() const;

    /**
     * Soft inverse of select(): add the received LLRs into
     * @p soft_buffer (turbo_encode() layout).  Calling repeatedly with
     * different redundancy versions implements HARQ combining.
     * View parameters, so vectors and workspace spans both work.
     */
    void accumulate(LlrSpan soft_buffer, LlrView e_llrs,
                    unsigned rv) const;

    /** Start offset of a redundancy version in the circular buffer. */
    std::size_t rv_offset(unsigned rv) const;

  private:
    std::size_t k_;
    std::size_t rows_;
    /** Circular-buffer position -> index into the turbo_encode()
     *  layout, or -1 for a NULL padding position. */
    std::vector<std::int32_t> cb_;
};

} // namespace lte::phy

#endif // LTE_PHY_RATE_MATCHING_HPP
