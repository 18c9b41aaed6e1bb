/**
 * @file
 * Per-(antenna, layer) channel estimation, the first parallel stage of
 * user processing (paper Sec. II-C / Fig. 5).
 *
 * The estimator implements the paper's four-kernel chain:
 *   1. matched filter — multiply the received reference symbol by the
 *      conjugate of the layer's known DMRS sequence;
 *   2. IFFT — to the time (delay) domain, where the layer's channel
 *      impulse response sits near delay 0 and other layers' responses
 *      sit at offsets n*N/4 thanks to their cyclic shifts;
 *   3. window — keep only the delay bins that can contain this layer's
 *      channel, suppressing noise and inter-layer leakage;
 *   4. FFT — back to the frequency domain, yielding the denoised
 *      per-subcarrier channel estimate.
 *
 * A noise-variance estimate is derived from the delay bins the window
 * discards (they contain only noise for a well-behaved channel).
 */
#ifndef LTE_PHY_CHANNEL_ESTIMATOR_HPP
#define LTE_PHY_CHANNEL_ESTIMATOR_HPP

#include <cstddef>

#include "common/types.hpp"

namespace lte::phy {

/**
 * Fraction of delay bins kept (split 3:1 between causal taps at the
 * start and pre-cursor taps at the end of the delay axis).  Must keep
 * the window inside +-N/8 so 4 cyclic-shifted layers stay separable.
 */
inline constexpr double kWindowFraction = 0.125;
static_assert(kWindowFraction > 0.0 && 0.75 * kWindowFraction <= 1.0 / 8,
              "the causal window must stay inside +-N/8");

/**
 * Estimate the channel seen by one layer on one antenna: writes the
 * frequency response into @p freq_response (same length as the
 * references) and returns the noise-variance estimate of the discarded
 * delay bins (0 when the allocation has no guard bins).
 *
 * @param received_ref the received DMRS symbol on this antenna
 *                     (allocated subcarriers only)
 * @param layer_ref    the known layer-specific DMRS sequence (same
 *                     length; unit-magnitude samples)
 * @param scratch      at least estimate_channel_scratch(n) samples;
 *                     must not overlap the other buffers
 */
float estimate_channel_into(CfView received_ref, CfView layer_ref,
                            CfSpan freq_response, CfSpan scratch);

/** Scratch samples estimate_channel_into() needs for an @p n-point
 *  reference: the delay-domain buffer plus FFT-plan scratch. */
std::size_t estimate_channel_scratch(std::size_t n);

/**
 * The estimator's matched filter: out[k] = rx[k] * conj(ref[k]).
 * DMRS samples have unit magnitude, so multiplying by the conjugate
 * divides out the known sequence.  Vectorized when built with
 * LTE_SIMD=ON; exposed for benchmarks and parity tests.
 */
void matched_filter_conj_into(CfView rx, CfView ref, CfSpan out);

/** Scalar reference twin of matched_filter_conj_into. */
void matched_filter_conj_scalar_into(CfView rx, CfView ref, CfSpan out);

/**
 * The number of leading/trailing delay bins kept by the window for a
 * transform of size @p n under @p window_fraction (exposed for tests).
 * first = causal taps kept at the start, second = taps kept at the end.
 */
std::pair<std::size_t, std::size_t>
window_extent(std::size_t n, double window_fraction);

} // namespace lte::phy

#endif // LTE_PHY_CHANNEL_ESTIMATOR_HPP
