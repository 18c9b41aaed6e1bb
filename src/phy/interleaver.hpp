/**
 * @file
 * Block (row-column) interleaver.
 *
 * The paper's receive chain deinterleaves the time-domain samples
 * between the IFFT and the soft demapper (Fig. 3).  We use the classic
 * rectangular interleaver: write row-wise into a matrix with a fixed
 * number of columns, read column-wise.
 */
#ifndef LTE_PHY_INTERLEAVER_HPP
#define LTE_PHY_INTERLEAVER_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace lte::phy {

/** Default interleaver width; 12 divides every LTE allocation size. */
inline constexpr std::size_t kInterleaverColumns = 12;

/**
 * Interleave a sequence: element i of the output is taken from
 * position permutation(i) of the input.  Length may be any value;
 * a possibly ragged final row is handled.
 */
CVec interleave(const CVec &in, std::size_t columns = kInterleaverColumns);

/** The permutation used by interleave(); out[i] = in[perm[i]]. */
std::vector<std::size_t> interleave_permutation(std::size_t n,
                                                std::size_t columns);

/** Heap-free variant: writes the n-element permutation into @p out
 *  (which must hold exactly n entries). */
void interleave_permutation_into(std::size_t n, std::size_t columns,
                                 std::span<std::size_t> out);

/** Exact inverse of interleave() using its precomputed permutation:
 *  out[perm[i]] = in[i].  All three arguments must be the same
 *  length, and @p in and @p out must not alias. */
void deinterleave_into(CfView in, std::span<const std::size_t> perm,
                       CfSpan out);

} // namespace lte::phy

#endif // LTE_PHY_INTERLEAVER_HPP
