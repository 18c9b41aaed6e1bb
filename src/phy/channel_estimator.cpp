#include "phy/channel_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "fft/fft.hpp"
#include "simd/complex.hpp"

namespace lte::phy {

void
matched_filter_conj_scalar_into(CfView rx, CfView ref, CfSpan out)
{
    LTE_CHECK(rx.size() == ref.size() && out.size() == rx.size(),
              "matched filter length mismatch");
    for (std::size_t k = 0; k < rx.size(); ++k)
        out[k] = rx[k] * std::conj(ref[k]);
}

void
matched_filter_conj_into(CfView rx, CfView ref, CfSpan out)
{
#if defined(LTE_SIMD_ENABLED)
    LTE_CHECK(rx.size() == ref.size() && out.size() == rx.size(),
              "matched filter length mismatch");
    const std::size_t n = rx.size();
    std::size_t k = 0;
    for (; k + simd::kLanes <= n; k += simd::kLanes) {
        const simd::cvf a = simd::cload(rx.data() + k);
        const simd::cvf b = simd::cload(ref.data() + k);
        simd::cstore(out.data() + k, simd::cmul_conj(a, b));
    }
    for (; k < n; ++k)
        out[k] = rx[k] * std::conj(ref[k]);
#else
    matched_filter_conj_scalar_into(rx, ref, out);
#endif
}

std::pair<std::size_t, std::size_t>
window_extent(std::size_t n, double window_fraction)
{
    // Total kept bins; at least one, never more than n.
    const auto total = std::clamp<std::size_t>(
        static_cast<std::size_t>(window_fraction * static_cast<double>(n)),
        1, n);
    const std::size_t back = total / 4;
    const std::size_t front = total - back;
    return {front, back};
}

std::size_t
estimate_channel_scratch(std::size_t n)
{
    return n + fft::FftCache::instance().plan(n).scratch_size();
}

float
estimate_channel_into(CfView received_ref, CfView layer_ref,
                      CfSpan freq_response, CfSpan scratch)
{
    LTE_CHECK(!received_ref.empty(), "empty reference symbol");
    LTE_CHECK(received_ref.size() == layer_ref.size(),
              "reference length mismatch");
    LTE_CHECK(freq_response.size() == received_ref.size(),
              "output length mismatch");

    const std::size_t n = received_ref.size();
    const fft::Fft &plan = fft::FftCache::instance().plan(n);
    LTE_ASSERT(scratch.size() >= n + plan.scratch_size(),
               "channel estimator scratch too small");
    const CfSpan delay = scratch.subspan(0, n);
    const CfSpan fft_scratch = scratch.subspan(n);

    // 1. Matched filter (SIMD-dispatched).
    matched_filter_conj_into(received_ref, layer_ref, freq_response);

    // 2. To the delay domain.
    plan.inverse(freq_response.data(), delay.data(), fft_scratch);

    // Noise bins: the guard region between this layer's window and the
    // next cyclic-shift bin at n/4, which holds neither this layer's
    // taps nor any other layer's.
    const auto [front, back] = window_extent(n, kWindowFraction);
    double noise_energy = 0.0;
    std::size_t noise_bins = 0;
    const std::size_t guard = n / 32;
    const std::size_t lo = front + guard;
    const std::size_t hi = n / 4 > guard ? n / 4 - guard : 0;
    for (std::size_t i = lo; i < hi; ++i) {
        noise_energy += std::norm(delay[i]);
        ++noise_bins;
    }

    // 3. Window in place: keep [0, front) and [n-back, n).  A block
    //    fill, which the compiler lowers to wide stores directly.
    std::fill(delay.begin() + static_cast<std::ptrdiff_t>(front),
              delay.begin() + static_cast<std::ptrdiff_t>(n - back),
              cf32(0.0f, 0.0f));

    // 4. Back to the frequency domain.
    plan.forward(delay.data(), freq_response.data(), fft_scratch);

    // Noise estimate: the IFFT of unit-variance frequency-domain noise
    // has per-bin variance 1/n, so scale back up by n to express the
    // estimate per subcarrier.  noise_var stays 0 when the allocation
    // is too small to have guard bins; the caller falls back to its
    // fixed default.
    if (noise_bins > 0) {
        return static_cast<float>(noise_energy /
                                  static_cast<double>(noise_bins) *
                                  static_cast<double>(n));
    }
    return 0.0f;
}

} // namespace lte::phy
