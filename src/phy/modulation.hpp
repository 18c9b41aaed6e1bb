/**
 * @file
 * Constellation mapping and soft demapping for the LTE uplink
 * modulations (QPSK, 16-QAM, 64-QAM), following the Gray mappings of
 * 3GPP TS 36.211 Sec. 7.1.
 *
 * The soft demapper produces max-log LLRs with the convention
 * LLR > 0 => bit 0 more likely, matching the mapping where bit value 0
 * selects the positive half-axis.
 */
#ifndef LTE_PHY_MODULATION_HPP
#define LTE_PHY_MODULATION_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lte::phy {

/**
 * Map a bit string onto constellation symbols.
 *
 * @param bits input bits (0/1), size must be a multiple of
 *             bits_per_symbol(mod)
 * @param mod  modulation scheme
 * @return unit-average-energy constellation symbols
 */
CVec modulate(const std::vector<std::uint8_t> &bits, Modulation mod);

/**
 * Noise-variance floor applied by the soft demapper.
 *
 * A degenerate subframe (all-zero signal, a pathological channel
 * estimate, or an upstream NaN) can reach the demapper with a noise
 * variance that is zero, negative, or NaN.  Rather than aborting the
 * whole study, the demapper clamps to this floor: LLR magnitudes
 * saturate (1/kDemodNoiseFloor is finite in float) and decoding
 * degrades gracefully.  Values above the floor are used unchanged, so
 * every realistic subframe is unaffected.
 */
inline constexpr float kDemodNoiseFloor = 1e-20f;

/**
 * Max-log soft demapping.
 *
 * Computed separably per axis (square Gray constellations make the
 * cross-axis distance terms cancel in the max-log metric), which is
 * exactly equal to the exhaustive 2-D max-log LLR at a fraction of
 * the cost.
 *
 * Dispatches to the SIMD demapper when the library is built with
 * LTE_SIMD=ON.
 *
 * @param symbols   received (equalised) symbols
 * @param mod       modulation scheme
 * @param noise_var effective noise variance after combining; values
 *                  not greater than kDemodNoiseFloor (including NaN)
 *                  are clamped to the floor
 * @param out       bits_per_symbol(mod) LLRs per input symbol: exactly
 *                  symbols.size() * bits_per_symbol(mod) entries
 */
void demodulate_soft_into(CfView symbols, Modulation mod, float noise_var,
                          LlrSpan out);

/** Scalar reference twin of demodulate_soft_into: always the plain
 *  per-symbol loop, regardless of the SIMD build mode.  The SIMD
 *  demapper's parity tests compare against this. */
void demodulate_soft_scalar_into(CfView symbols, Modulation mod,
                                 float noise_var, LlrSpan out);

/**
 * Squared Euclidean distance from @p y to the nearest constellation
 * point of @p mod (separable per axis; used for EVM).
 */
float nearest_point_distance2(cf32 y, Modulation mod);

/**
 * EVM accumulation over a block of symbols: returns @p acc plus
 * nearest_point_distance2(y, mod) of every symbol, each float distance
 * widened and added to the double in symbol order.  Bit-identical to
 * the per-symbol loop (NaN components included), but the level table
 * is resolved once per call and, with LTE_SIMD=ON, the distances are
 * computed a vector of symbols at a time.
 */
double accumulate_nearest_distance2(CfView symbols, Modulation mod,
                                    double acc);

/** Hard decisions from LLRs (LLR >= 0 -> bit 0); @p out must match
 *  @p llrs in length. */
void hard_decision_into(LlrView llrs, BitSpan out);

/** The full constellation of @p mod (2^bits points, Gray mapped). */
const CVec &constellation(Modulation mod);

} // namespace lte::phy

#endif // LTE_PHY_MODULATION_HPP
