/**
 * @file
 * FFT library tests: agreement with the O(n^2) double-precision
 * reference DFT across power-of-two, 5-smooth, prime, and
 * Bluestein-path sizes; round-trip identity; linearity; Parseval;
 * impulse and sinusoid spectra; plan-cache behaviour; thread safety.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/rng.hpp"
#include "fft/dft_ref.hpp"
#include "fft/fft.hpp"
#include "simd/simd.hpp"

namespace lte::fft {
namespace {

CVec
random_signal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    CVec v(n);
    for (auto &s : v) {
        s = cf32(static_cast<float>(rng.next_gaussian()),
                 static_cast<float>(rng.next_gaussian()));
    }
    return v;
}

double
max_err(const CVec &a, const CVec &b)
{
    EXPECT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max<double>(worst, std::abs(a[i] - b[i]));
    return worst;
}

/** Out-of-place forward transform through the shared plan cache. */
CVec
forward(const CVec &x)
{
    CVec out(x.size());
    FftCache::instance().plan(x.size()).forward(x.data(), out.data());
    return out;
}

/** Error tolerance scales with transform size (float accumulation). */
double
tolerance(std::size_t n)
{
    return 2e-4 * std::sqrt(static_cast<double>(n)) + 1e-4;
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FftSizeTest, ForwardMatchesReference)
{
    const std::size_t n = GetParam();
    const CVec x = random_signal(n, 100 + n);
    const CVec ref = dft_reference(x);
    CVec out(n);
    Fft plan(n);
    plan.forward(x.data(), out.data());
    EXPECT_LT(max_err(out, ref), tolerance(n)) << "n=" << n;
}

TEST_P(FftSizeTest, InverseMatchesReference)
{
    const std::size_t n = GetParam();
    const CVec x = random_signal(n, 200 + n);
    const CVec ref = idft_reference(x);
    CVec out(n);
    Fft plan(n);
    plan.inverse(x.data(), out.data());
    EXPECT_LT(max_err(out, ref), tolerance(n)) << "n=" << n;
}

TEST_P(FftSizeTest, RoundTripIsIdentity)
{
    const std::size_t n = GetParam();
    const CVec x = random_signal(n, 300 + n);
    CVec freq(n), back(n);
    Fft plan(n);
    plan.forward(x.data(), freq.data());
    plan.inverse(freq.data(), back.data());
    EXPECT_LT(max_err(back, x), tolerance(n)) << "n=" << n;
}

TEST_P(FftSizeTest, ParsevalHolds)
{
    const std::size_t n = GetParam();
    const CVec x = random_signal(n, 400 + n);
    CVec freq(n);
    Fft plan(n);
    plan.forward(x.data(), freq.data());
    double time_energy = 0.0, freq_energy = 0.0;
    for (const auto &s : x)
        time_energy += std::norm(s);
    for (const auto &s : freq)
        freq_energy += std::norm(s);
    freq_energy /= static_cast<double>(n);
    EXPECT_NEAR(freq_energy, time_energy,
                1e-3 * time_energy + 1e-6) << "n=" << n;
}

// Sizes covering: trivial, powers of two, 5-smooth LTE sizes (12*PRBs),
// small primes (direct DFT base case), sizes with prime factors 7..61,
// and sizes whose largest prime factor forces the Bluestein path.
INSTANTIATE_TEST_SUITE_P(
    Sizes, FftSizeTest,
    ::testing::Values<std::size_t>(
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 24, 25, 31, 36, 47,
        60, 61, 64, 84, 100, 108, 128, 144, 180, 240, 256, 300, 360,
        443,            // prime > 61: Bluestein
        12 * 67,        // 804: largest prime factor 67 -> Bluestein
        12 * 97,        // 1164: Bluestein
        12 * 100,       // 1200: 20 MHz full allocation
        2048),
    [](const auto &info) { return "n" + std::to_string(info.param); });

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    const std::size_t n = 48;
    CVec x(n, cf32(0.0f, 0.0f));
    x[0] = cf32(1.0f, 0.0f);
    const CVec freq = forward(x);
    for (const auto &s : freq) {
        EXPECT_NEAR(s.real(), 1.0f, 1e-5f);
        EXPECT_NEAR(s.imag(), 0.0f, 1e-5f);
    }
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const std::size_t n = 60;
    const std::size_t tone = 7;
    CVec x(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double angle = 2.0 * M_PI * static_cast<double>(tone * t) /
                             static_cast<double>(n);
        x[t] = cf32(static_cast<float>(std::cos(angle)),
                    static_cast<float>(std::sin(angle)));
    }
    const CVec freq = forward(x);
    for (std::size_t k = 0; k < n; ++k) {
        const float expected = (k == tone) ? static_cast<float>(n) : 0.0f;
        EXPECT_NEAR(std::abs(freq[k]), expected, 2e-3f) << "k=" << k;
    }
}

TEST(Fft, LinearityHolds)
{
    const std::size_t n = 120;
    const CVec a = random_signal(n, 1), b = random_signal(n, 2);
    const cf32 alpha(2.0f, -1.0f), beta(0.5f, 3.0f);
    CVec combo(n);
    for (std::size_t i = 0; i < n; ++i)
        combo[i] = alpha * a[i] + beta * b[i];
    const CVec fa = forward(a), fb = forward(b);
    const CVec fc = forward(combo);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(fc[i] - (alpha * fa[i] + beta * fb[i])),
                    0.0, 5e-3);
    }
}

TEST(Fft, InPlaceTransformWorks)
{
    const std::size_t n = 96;
    CVec x = random_signal(n, 55);
    const CVec ref = dft_reference(x);
    Fft plan(n);
    plan.forward(x.data(), x.data());
    EXPECT_LT(max_err(x, ref), tolerance(n));
}

TEST(Fft, SizeOneIsIdentity)
{
    Fft plan(1);
    const cf32 in(3.5f, -2.0f);
    cf32 out;
    plan.forward(&in, &out);
    EXPECT_EQ(out, in);
    plan.inverse(&in, &out);
    EXPECT_EQ(out, in);
}

TEST(Fft, RejectsZeroSize)
{
    EXPECT_THROW(Fft plan(0), std::invalid_argument);
}

TEST(Fft, OpCountMonotoneInSize)
{
    // Not strictly monotone point-to-point (algorithm switches), but
    // doubling the size must increase cost.
    for (std::size_t n : {12u, 48u, 120u, 300u, 600u})
        EXPECT_GT(Fft::op_count(2 * n), Fft::op_count(n));
    EXPECT_EQ(Fft::op_count(1), 0u);
}

TEST(Fft, OpCountRoughlyNLogN)
{
    // For powers of two the cost should be within a small factor of
    // the textbook 5 n log2 n flops.
    for (std::size_t n : {64u, 256u, 1024u}) {
        const double textbook =
            5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
        const double ours = static_cast<double>(Fft::op_count(n));
        EXPECT_GT(ours, textbook);
        EXPECT_LT(ours, 8.0 * textbook);
    }
}

TEST(Fft, OpCountBluesteinChargesTwoConvolutionTransforms)
{
    // 804 = 12*67 runs Bluestein on a 2048-point plan.  A call runs one
    // forward and one inverse 2048-point transform (the chirp spectrum
    // is computed once, at plan time) plus the 2n + conv_n chirp
    // multiplies at 6 flops each.
    EXPECT_EQ(Fft::op_count(804),
              2 * Fft::op_count(2048) + (2 * 804 + 2048) * 6u);
}

TEST(Fft, OpCountSmoothIsTheOpCountOfTheNextSmoothSize)
{
    // op_count_smooth reads a table up to one slot's widest allocation
    // (1200 subcarriers) and computes above it; both sides of that
    // boundary must price the padded 5-smooth transform.
    for (std::size_t n = 0; n <= 1300; ++n) {
        ASSERT_EQ(Fft::op_count_smooth(n),
                  Fft::op_count(Fft::next_5_smooth(n)))
            << "n = " << n;
    }
}

/** FNV-1a over the raw bytes of @p v, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const CVec &v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(cf32); ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

#if !defined(__FMA__)
// Contracted multiply-adds (native builds) round differently, so the
// pinned digests hold only for the default portable builds.
TEST(FftBitExact, AllocationSizesMatchSeedDigest)
{
    // The per-slot SC-FDMA sizes 12*q, q = 1..100, cover every code
    // path: 2/3/5-smooth butterflies, direct-DFT leaves for primes
    // 7..61, radix-p > 5 combines (q = 77, 91) and Bluestein (q with a
    // prime factor > 61).  The digests were recorded before the
    // odd-prime paths were vectorized; any change that moves one output
    // bit trips them.  SIMD and scalar builds use different factor
    // orders, so each has its own digest.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t q = 1; q <= 100; ++q) {
        const std::size_t n = 12 * q;
        const CVec x = random_signal(n, 500 + n);
        CVec out(n);
        Fft plan(n);
        plan.forward(x.data(), out.data());
        h = fnv1a(h, out);
        plan.inverse(x.data(), out.data());
        h = fnv1a(h, out);
    }
    const std::uint64_t expected =
        simd::enabled() ? 0x0240e635f53dd01eull : 0xbc8b851a6af95b53ull;
    EXPECT_EQ(h, expected) << std::hex << "digest 0x" << h;
}

/** The channel estimator's delay buffer: @p x with the bins between
 *  the kept front and back of the window zeroed (the formula of
 *  phy::window_extent at a 1/8 window). */
CVec
windowed(CVec x)
{
    const std::size_t n = x.size();
    const auto total = std::clamp<std::size_t>(
        static_cast<std::size_t>(0.125 * static_cast<double>(n)), 1, n);
    const std::size_t back = total / 4;
    const std::size_t front = total - back;
    for (std::size_t i = front; i < n - back; ++i)
        x[i] = cf32(0.0f, 0.0f);
    return x;
}

TEST(FftBitExact, EverySizeMatchesSeedDigest)
{
    // Every size 1..1300 plus 2048 and 4096, forward and inverse, on a
    // random input, the same input zeroed like the channel estimator's
    // windowed delay buffer (long exact-zero runs, where the sign of a
    // zero could tell two rotation formulas apart) and a two-impulse
    // input.  The digests were recorded before the FFT moved from a
    // depth-first recursion to the level-batched executor.  SIMD
    // builds (SSE2 and AVX2 alike) and scalar builds use different
    // factor orders, so each has its own.
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 1300; ++n)
        sizes.push_back(n);
    sizes.push_back(2048);
    sizes.push_back(4096);

    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::size_t n : sizes) {
        const CVec noise = random_signal(n, 7000 + n);
        CVec impulses(n, cf32(0.0f, 0.0f));
        impulses[n / 3] += cf32(1.0f, 0.0f);
        impulses[n - 1] += cf32(-0.5f, 0.25f);
        Fft plan(n);
        CVec out(n);
        for (const CVec &x : {noise, windowed(noise), impulses}) {
            plan.forward(x.data(), out.data());
            h = fnv1a(h, out);
            plan.inverse(x.data(), out.data());
            h = fnv1a(h, out);
        }
    }
    const std::uint64_t expected =
        simd::enabled() ? 0xb65c1b6026ee259bull : 0x2c786b361395e28eull;
    EXPECT_EQ(h, expected) << std::hex << "digest 0x" << h;
}
#endif

TEST(FftCache, ReturnsSamePlanForSameSize)
{
    auto &cache = FftCache::instance();
    const Fft &a = cache.plan(132);
    const Fft &b = cache.plan(132);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 132u);
}

TEST(FftCache, ConcurrentAccessIsSafe)
{
    auto &cache = FftCache::instance();
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache, &failures, t] {
            for (int i = 0; i < 50; ++i) {
                const std::size_t n = 12 * (1 + (i + t) % 20);
                const Fft &plan = cache.plan(n);
                CVec x(n, cf32(1.0f, 0.0f)), out(n);
                plan.forward(x.data(), out.data());
                // DC bin must hold the sum n.
                if (std::abs(out[0].real() - static_cast<float>(n)) > 1e-2f)
                    ++failures;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
}

} // namespace
} // namespace lte::fft
