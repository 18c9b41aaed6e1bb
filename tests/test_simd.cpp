/**
 * @file
 * Scalar-vs-SIMD parity tests for the vectorized DSP kernels.
 *
 * Every vectorized kernel keeps a scalar reference twin; these tests
 * sweep modulations, layer/antenna shapes, odd subcarrier counts (so
 * both full vector blocks and scalar tails run for 4- and 8-lane
 * backends) and extreme noise variances, and bound the difference at
 * ULP scale.  With LTE_SIMD=OFF the dispatching kernels compile to
 * their scalar twins and the comparisons become exact.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "fft/dft_ref.hpp"
#include "fft/fft.hpp"
#include "phy/channel_estimator.hpp"
#include "phy/combiner.hpp"
#include "phy/modulation.hpp"
#include "simd/complex.hpp"
#include "simd/trellis.hpp"

namespace lte::phy {
namespace {

/** Sizes covering multiple full blocks plus every tail length for both
 *  4-lane and 8-lane backends, including degenerate n=1. */
constexpr std::size_t kOddSizes[] = {1, 3, 5, 7, 13, 31, 64, 301};

CVec
random_symbols(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    CVec v(n);
    for (auto &s : v) {
        s = cf32(static_cast<float>(rng.next_gaussian()),
                 static_cast<float>(rng.next_gaussian()));
    }
    return v;
}

/** |a - b| bounded by a few ULP of the operand scale (plus a small
 *  absolute floor for values near zero). */
void
expect_ulp_close(float a, float b, float rel, const char *what)
{
    const float scale =
        std::max({1.0f, std::fabs(a), std::fabs(b)});
    EXPECT_LE(std::fabs(a - b), rel * scale)
        << what << ": " << a << " vs " << b;
}

void
expect_ulp_close(cf32 a, cf32 b, float rel, const char *what)
{
    expect_ulp_close(a.real(), b.real(), rel, what);
    expect_ulp_close(a.imag(), b.imag(), rel, what);
}

// ---------------------------------------------------------------------------
// Soft demapper
// ---------------------------------------------------------------------------

class DemapParity : public ::testing::TestWithParam<Modulation>
{
};

TEST_P(DemapParity, MatchesScalarAcrossSizesAndNoise)
{
    const Modulation mod = GetParam();
    const std::size_t bps = bits_per_symbol(mod);
    // Includes the clamp floor itself and a huge variance: the SIMD
    // path must survive the same extremes as the scalar clamp.
    const float noises[] = {kDemodNoiseFloor, 1e-6f, 0.01f, 1.0f, 1e8f};
    for (std::size_t n : kOddSizes) {
        const CVec symbols = random_symbols(n, 1000 + n);
        for (float nv : noises) {
            std::vector<Llr> simd_out(n * bps), scalar_out(n * bps);
            demodulate_soft_into(symbols, mod, nv, simd_out);
            demodulate_soft_scalar_into(symbols, mod, nv, scalar_out);
            for (std::size_t i = 0; i < simd_out.size(); ++i) {
                // The SIMD demapper mirrors the scalar arithmetic
                // lane-for-lane, so parity is exact.
                EXPECT_EQ(simd_out[i], scalar_out[i])
                    << "n=" << n << " nv=" << nv << " i=" << i;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, DemapParity,
                         ::testing::Values(Modulation::kQpsk,
                                           Modulation::k16Qam,
                                           Modulation::k64Qam));

// ---------------------------------------------------------------------------
// Combiner: weights, combining, bias correction
// ---------------------------------------------------------------------------

struct MimoShape
{
    std::size_t layers;
    std::size_t antennas;
};

class CombinerParity : public ::testing::TestWithParam<MimoShape>
{
};

std::vector<cf32>
random_channel(const MimoShape &shape, std::size_t n_sc,
               std::uint64_t seed)
{
    const CVec v =
        random_symbols(shape.antennas * shape.layers * n_sc, seed);
    return {v.begin(), v.end()};
}

TEST_P(CombinerParity, WeightsMatchScalarAcrossSizesAndNoise)
{
    const MimoShape shape = GetParam();
    const float noises[] = {1e-8f, 1e-3f, 0.5f, 1e4f};
    for (std::size_t n_sc : kOddSizes) {
        const auto ch = random_channel(shape, n_sc, 2000 + n_sc);
        const ChannelView view{ch.data(), shape.antennas, shape.layers,
                               n_sc};
        for (float nv : noises) {
            CombinerWeights simd_w, scalar_w;
            compute_combiner_weights_into(view, nv, simd_w);
            compute_combiner_weights_scalar_into(view, nv, scalar_w);
            for (std::size_t sc = 0; sc < n_sc; ++sc) {
                // MMSE weights on an ill-conditioned Gram matrix
                // amplify the rounding differences between the scalar
                // and FMA-contracted (-march=native) solve paths by
                // roughly the square of the weight magnitude, so the
                // tolerance must scale with the matrix, not the
                // element: small entries of a badly conditioned
                // inverse are exactly where cancellation lands.
                float w_max = 0.0f;
                for (std::size_t l = 0; l < shape.layers; ++l)
                    for (std::size_t a = 0; a < shape.antennas; ++a)
                        w_max = std::max(w_max,
                                         std::abs(scalar_w(sc, l, a)));
                const float tol =
                    1e-4f * std::max(1.0f, w_max * w_max);
                for (std::size_t l = 0; l < shape.layers; ++l) {
                    for (std::size_t a = 0; a < shape.antennas; ++a) {
                        expect_ulp_close(simd_w(sc, l, a),
                                         scalar_w(sc, l, a), tol,
                                         "weight");
                    }
                }
            }
        }
    }
}

TEST_P(CombinerParity, CombineMatchesScalar)
{
    const MimoShape shape = GetParam();
    for (std::size_t n_sc : kOddSizes) {
        const auto ch = random_channel(shape, n_sc, 3000 + n_sc);
        const ChannelView view{ch.data(), shape.antennas, shape.layers,
                               n_sc};
        CombinerWeights w;
        compute_combiner_weights_scalar_into(view, 0.01f, w);

        std::vector<CVec> rx_store;
        std::vector<CfView> rx;
        for (std::size_t a = 0; a < shape.antennas; ++a)
            rx_store.push_back(random_symbols(n_sc, 4000 + 7 * a + n_sc));
        for (const CVec &v : rx_store)
            rx.emplace_back(v.data(), v.size());

        CVec simd_out(n_sc), scalar_out(n_sc);
        for (std::size_t l = 0; l < shape.layers; ++l) {
            combine_layer_into(std::span<const CfView>(rx), w, l,
                               simd_out);
            combine_layer_scalar_into(std::span<const CfView>(rx), w, l,
                                      scalar_out);
            for (std::size_t sc = 0; sc < n_sc; ++sc)
                expect_ulp_close(simd_out[sc], scalar_out[sc], 1e-5f,
                                 "combined");
        }
    }
}

TEST_P(CombinerParity, BiasCorrectionMatchesScalar)
{
    const MimoShape shape = GetParam();
    for (std::size_t n_sc : kOddSizes) {
        const auto ch = random_channel(shape, n_sc, 5000 + n_sc);
        const ChannelView view{ch.data(), shape.antennas, shape.layers,
                               n_sc};
        CombinerWeights w;
        compute_combiner_weights_scalar_into(view, 0.01f, w);
        const CVec base = random_symbols(n_sc, 6000 + n_sc);
        for (std::size_t l = 0; l < shape.layers; ++l) {
            CVec simd_c(base), scalar_c(base);
            apply_mmse_bias_into(view, w, l, simd_c);
            apply_mmse_bias_scalar_into(view, w, l, scalar_c);
            for (std::size_t sc = 0; sc < n_sc; ++sc) {
                // Scalar complex division (libgcc's __divsc3, in double)
                // vs multiply-by-reciprocal differ by a few ULP.
                expect_ulp_close(simd_c[sc], scalar_c[sc], 1e-4f,
                                 "bias-corrected");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LayerAntennaSweep, CombinerParity,
    ::testing::Values(MimoShape{1, 2}, MimoShape{2, 2}, MimoShape{1, 4},
                      MimoShape{2, 4}, MimoShape{3, 4}, MimoShape{4, 4}));

#if !defined(__FMA__)
// Contracted multiply-adds (native builds) round differently, so the
// pinned digest holds only for the default portable builds.

/** FNV-1a over the raw bytes of every weight in @p w, continuing from
 *  @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const CombinerWeights &w)
{
    const auto *p = reinterpret_cast<const unsigned char *>(w.plane(0, 0));
    const std::size_t n =
        w.n_subcarriers() * w.layers() * w.antennas() * sizeof(cf32);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(CombinerParity, WeightsDigestPinned)
{
    // Every multi-layer MMSE weight bit, over each size in kOddSizes
    // (vector blocks and scalar tails) and four noise levels.  Besides
    // the channel as drawn, one variant scales layer 0 by 1e-2 (its
    // Gram diagonal is then the smallest, so the pivot search swaps
    // rows) and one zeroes layer 0 on every third subcarrier (so the
    // elimination skips zero factors).  The digest was recorded with
    // the one-subcarrier-at-a-time FixedCMat solve; the lane-parallel
    // solve must reproduce them bit for bit.  On these inputs the
    // SIMD and scalar builds' multi-layer Gram and solve round
    // identically, so 4-lane, 8-lane and LTE_SIMD=OFF builds share one
    // digest.
    const MimoShape shapes[] = {{2, 4}, {3, 4}, {4, 4}};
    const float noises[] = {1e-8f, 1e-3f, 0.5f, 1e4f};
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const MimoShape &shape : shapes) {
        for (std::size_t n_sc : kOddSizes) {
            const auto drawn = random_channel(shape, n_sc, 10000 + n_sc);
            for (int variant = 0; variant < 3; ++variant) {
                std::vector<cf32> ch = drawn;
                for (std::size_t a = 0; a < shape.antennas; ++a) {
                    cf32 *layer0 = ch.data() + a * shape.layers * n_sc;
                    for (std::size_t sc = 0; sc < n_sc; ++sc) {
                        if (variant == 1)
                            layer0[sc] *= 1e-2f;
                        else if (variant == 2 && sc % 3 == 0)
                            layer0[sc] = cf32(0.0f, 0.0f);
                    }
                }
                const ChannelView view{ch.data(), shape.antennas,
                                       shape.layers, n_sc};
                for (float nv : noises) {
                    CombinerWeights w;
                    compute_combiner_weights_into(view, nv, w);
                    h = fnv1a(h, w);
                }
            }
        }
    }
    EXPECT_EQ(h, 0x42cc44b3fcc6910eull) << std::hex << "digest 0x" << h;
}
#endif

TEST(CombinerParity, SingularSubcarrierThrowsFromBothPaths)
{
    // An all-zero subcarrier at noise_var = 1e-21 leaves a Gram of
    // 1e-21 * I, below the solve's 1e-20 pivot floor.  Both paths must
    // refuse it, whether it falls inside a vector block or in the
    // scalar tail; the same channel without it solves cleanly.
    const std::size_t n_sc = 2 * simd::kLanes + 3;
    const float nv = 1e-21f;
    for (const MimoShape shape :
         {MimoShape{2, 4}, MimoShape{3, 4}, MimoShape{4, 4}}) {
        const auto drawn = random_channel(shape, n_sc, 11000);
        CombinerWeights w;
        const ChannelView clean{drawn.data(), shape.antennas,
                                shape.layers, n_sc};
        EXPECT_NO_THROW(compute_combiner_weights_into(clean, nv, w));
        EXPECT_NO_THROW(compute_combiner_weights_scalar_into(clean, nv, w));
        for (const std::size_t zero_sc : {std::size_t{1}, n_sc - 1}) {
            std::vector<cf32> ch = drawn;
            for (std::size_t al = 0; al < shape.antennas * shape.layers;
                 ++al)
                ch[al * n_sc + zero_sc] = cf32(0.0f, 0.0f);
            const ChannelView view{ch.data(), shape.antennas,
                                   shape.layers, n_sc};
            EXPECT_THROW(compute_combiner_weights_into(view, nv, w),
                         std::invalid_argument)
                << shape.layers << " layers, subcarrier " << zero_sc;
            EXPECT_THROW(compute_combiner_weights_scalar_into(view, nv, w),
                         std::invalid_argument)
                << shape.layers << " layers, subcarrier " << zero_sc;
        }
    }
}

// ---------------------------------------------------------------------------
// Channel estimator matched filter
// ---------------------------------------------------------------------------

TEST(MatchedFilterParity, MatchesScalar)
{
    for (std::size_t n : kOddSizes) {
        const CVec rx = random_symbols(n, 7000 + n);
        const CVec ref = random_symbols(n, 8000 + n);
        CVec simd_out(n), scalar_out(n);
        matched_filter_conj_into(rx, ref, simd_out);
        matched_filter_conj_scalar_into(rx, ref, scalar_out);
        for (std::size_t k = 0; k < n; ++k)
            expect_ulp_close(simd_out[k], scalar_out[k], 1e-6f,
                             "matched filter");
    }
}

// ---------------------------------------------------------------------------
// FFT butterflies (radix-4 path only exists in SIMD builds; the
// reference comparison keeps both configurations honest)
// ---------------------------------------------------------------------------

TEST(FftSimdParity, MatchesReferenceOnButterflySizes)
{
    // Powers of two exercise the radix-4 (+ leftover radix-2) path;
    // 4*odd and 2*odd sizes exercise the mixed selection logic.
    // 12*q with a prime q in 7..61 exercises the vector direct-DFT
    // leaf and its scalar tail (84 = 12*7 is all tail on 8 lanes), and
    // 924 = 12*7*11, 1092 = 12*7*13 the runtime-radix combine (radix
    // 7 above an 11- or 13-point leaf).
    const std::size_t sizes[] = {4,   8,   12,  16,  20,  64,  96,
                                 256, 300, 600, 1024, 1200, 84, 132,
                                 156, 228, 708, 732, 924, 1092};
    for (std::size_t n : sizes) {
        const CVec x = random_symbols(n, 9000 + n);
        const CVec ref = fft::dft_reference(x);
        CVec out(n);
        fft::Fft plan(n);
        plan.forward(x.data(), out.data());
        const double tol =
            2e-4 * std::sqrt(static_cast<double>(n)) + 1e-4;
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_LT(std::abs(out[k] - ref[k]), tol)
                << "n=" << n << " k=" << k;
        }

        // The inverse transform on its own (conjugated twiddles and
        // leaf matrix, vectorized 1/n scale) against the reference.
        const CVec iref = fft::idft_reference(x);
        plan.inverse(x.data(), out.data());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_LT(std::abs(out[k] - iref[k]), tol)
                << "inverse n=" << n << " k=" << k;
        }

        // Round trip through the inverse.
        CVec freq(n), back(n);
        plan.forward(x.data(), freq.data());
        plan.inverse(freq.data(), back.data());
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_LT(std::abs(back[k] - x[k]), tol) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// simd:: primitive sanity (runs on every backend, including scalar)
// ---------------------------------------------------------------------------

TEST(SimdPrimitives, LoadStoreRoundTripAndSelect)
{
    using namespace lte::simd;
    float in[2 * kLanes], out[2 * kLanes];
    for (std::size_t i = 0; i < 2 * kLanes; ++i)
        in[i] = static_cast<float>(i) - 3.5f;

    const vf a = vf::load(in);
    a.store(out);
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(out[i], in[i]);

    // cload/cstore round trip preserves interleaved complex data.
    cf32 cbuf[kLanes], cout[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i)
        cbuf[i] = cf32(static_cast<float>(i), -static_cast<float>(i));
    cstore(cout, cload(cbuf));
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(cout[i], cbuf[i]);

    // Strided gather picks every second element.
    cf32 strided[2 * kLanes];
    for (std::size_t i = 0; i < 2 * kLanes; ++i)
        strided[i] = cf32(static_cast<float>(i), 0.5f);
    cf32 gathered[kLanes];
    cstore(gathered, cload_strided(strided, 2));
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(gathered[i], strided[2 * i]);

    // vselect keeps lanes where the mask is set.
    const vf big = vf::set1(2.0f), small = vf::set1(1.0f);
    float sel[kLanes];
    vselect(vgt(big, small), big, small).store(sel);
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(sel[i], 2.0f);

    EXPECT_STREQ(backend_name(), simd::enabled() ? backend_name()
                                                 : "scalar");
}

TEST(SimdPrimitives, TrellisV8sMatchesLaneTables)
{
    using namespace lte::simd;
    using Lanes = std::array<std::int16_t, 8>;
    const auto lanes = [](v8s x) {
        Lanes out;
        x.store(out.data());
        return out;
    };
    const auto permuted = [](const Lanes &x, const int (&idx)[8]) {
        Lanes out;
        for (std::size_t i = 0; i < 8; ++i)
            out[i] = x[static_cast<std::size_t>(idx[i])];
        return out;
    };
    const Lanes x = {11, -22, 33, -44, 55, -66, 77, -88};
    const v8s vx = v8s::load(x.data());
    EXPECT_EQ(lanes(vx), x);

    // The cross-lane tables of the trellis recursions (trellis.hpp).
    static constexpr int kLowPairs[8] = {0, 0, 1, 1, 2, 2, 3, 3};
    static constexpr int kHighPairs[8] = {4, 4, 5, 5, 6, 6, 7, 7};
    static constexpr int kNext0[8] = {0, 2, 5, 7, 1, 3, 4, 6};
    static constexpr int kNext1[8] = {1, 3, 4, 6, 0, 2, 5, 7};
    static constexpr int kLane0[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    EXPECT_EQ(lanes(dup_low_pairs(vx)), permuted(x, kLowPairs));
    EXPECT_EQ(lanes(dup_high_pairs(vx)), permuted(x, kHighPairs));
    EXPECT_EQ(lanes(perm_next0(vx)), permuted(x, kNext0));
    EXPECT_EQ(lanes(perm_next1(vx)), permuted(x, kNext1));
    EXPECT_EQ(lanes(dup_lane0(vx)), permuted(x, kLane0));

    // One branch-metric row [A, -A, B, -B] expands to the forward
    // column [A, -A, B, -B, -B, B, -A, A] and the backward column
    // [A, B, B, A, A, B, B, A].
    const std::int16_t row[4] = {5, -5, 9, -9};
    static constexpr int kFwd[8] = {0, 1, 2, 3, 3, 2, 1, 0};
    static constexpr int kBwd[8] = {0, 2, 2, 0, 0, 2, 2, 0};
    const Lanes row_lanes = {row[0], row[1], row[2], row[3], 0, 0, 0, 0};
    EXPECT_EQ(lanes(load_fwd_metrics(row)), permuted(row_lanes, kFwd));
    EXPECT_EQ(lanes(load_bwd_metrics(row)), permuted(row_lanes, kBwd));

    // hmax finds the maximum wherever it sits, extremes included.
    for (std::size_t at = 0; at < 8; ++at) {
        Lanes y;
        y.fill(-32768);
        y[at] = static_cast<std::int16_t>(-32767 + static_cast<int>(at));
        EXPECT_EQ(hmax(v8s::load(y.data())), y[at]) << "at=" << at;
        y[at] = 32767;
        EXPECT_EQ(hmax(v8s::load(y.data())), 32767) << "at=" << at;
    }

    // adds/subs saturate exactly like sat16; v8smax is lane-wise.
    const Lanes a = {32767, 32767, -32768, -32768, 0, 32767, -32768, 1};
    const Lanes b = {1, 32767, -1, -32768, -32768, -32768, 32767, -1};
    const Lanes sum = lanes(adds(v8s::load(a.data()), v8s::load(b.data())));
    const Lanes diff =
        lanes(subs(v8s::load(a.data()), v8s::load(b.data())));
    const Lanes mx =
        lanes(v8smax(v8s::load(a.data()), v8s::load(b.data())));
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(sum[i], sat16(int{a[i]} + int{b[i]})) << "i=" << i;
        EXPECT_EQ(diff[i], sat16(int{a[i]} - int{b[i]})) << "i=" << i;
        EXPECT_EQ(mx[i], std::max(a[i], b[i])) << "i=" << i;
    }
}

#if !defined(__FMA__)
// The lane twins reproduce the library calls only without contracted
// multiply-adds (see simd/complex.hpp).
TEST(SimdPrimitives, CabsAndCrecipMatchLibraryBitForBit)
{
    using namespace lte::simd;
    // 2^20 seeded inputs: magnitudes 1e-30..1e30 drawn independently
    // for the real and imaginary parts, with an eighth of them each
    // carrying a signed-zero real part, a signed-zero imaginary part,
    // or a |re| == |im| tie.
    Rng rng(2012);
    const auto draw = [&rng] {
        const double mant = 1.0 + 9.0 * rng.next_double();
        const double e = static_cast<double>(rng.next_in(-30, 30));
        const float v = static_cast<float>(mant * std::pow(10.0, e));
        return rng.next_below(2) ? -v : v;
    };
    std::size_t mismatches = 0;
    std::size_t re_below_im = 0, re_not_below_im = 0;
    constexpr std::size_t kInputs = std::size_t{1} << 20;
    for (std::size_t n = 0; n < kInputs; n += kLanes) {
        cf32 z[kLanes];
        for (cf32 &zi : z) {
            float re = draw(), im = draw();
            switch (rng.next_below(8)) {
            case 0:
                re = rng.next_below(2) ? -0.0f : 0.0f;
                break;
            case 1:
                im = rng.next_below(2) ? -0.0f : 0.0f;
                break;
            case 2:
                im = rng.next_below(2) ? -re : re;
                break;
            default:
                break;
            }
            zi = cf32(re, im);
            ++(std::fabs(re) < std::fabs(im) ? re_below_im
                                              : re_not_below_im);
        }
        float mag[kLanes];
        cabs(cload(z)).store(mag);
        cf32 rec[kLanes];
        cstore(rec, crecip(cload(z)));
        for (std::size_t i = 0; i < kLanes; ++i) {
            const float ref_mag = std::abs(z[i]);
            const cf32 ref_rec = cf32(1.0f, 0.0f) / z[i];
            const bool same =
                std::memcmp(&mag[i], &ref_mag, sizeof ref_mag) == 0 &&
                std::memcmp(&rec[i], &ref_rec, sizeof ref_rec) == 0;
            if (!same && mismatches++ < 5) {
                ADD_FAILURE() << "z = (" << z[i].real() << ", "
                              << z[i].imag() << "): |z| " << mag[i]
                              << " vs " << ref_mag << ", 1/z " << rec[i]
                              << " vs " << ref_rec;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // Both orderings of |re| and |im| (the two branches of a Smith
    // divide, should a library use one) are well covered.
    EXPECT_GT(re_below_im, kInputs / 4);
    EXPECT_GT(re_not_below_im, kInputs / 4);
}
#endif

} // namespace
} // namespace lte::phy
