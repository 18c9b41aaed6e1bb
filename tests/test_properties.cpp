/**
 * @file
 * Cross-module property tests: exact equivalence of the separable
 * max-log demapper with the exhaustive 2-D reference, smooth-envelope
 * FFT cost properties, the paper model's PRB density weighting, the
 * weighted calibration fit, and end-to-end invariants under
 * parameter sweeps.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "mgmt/estimator.hpp"
#include "phy/modulation.hpp"
#include "phy/op_model.hpp"
#include "phy/turbo.hpp"
#include "workload/paper_model.hpp"

namespace lte {
namespace {

/** Out-of-place forward FFT through the shared plan cache. */
CVec
spectrum(const CVec &x)
{
    CVec out(x.size());
    fft::FftCache::instance().plan(x.size()).forward(x.data(), out.data());
    return out;
}

/** Exhaustive 2-D max-log LLRs, the textbook definition. */
std::vector<Llr>
demap_reference(const CVec &symbols, Modulation mod, float noise_var)
{
    const std::size_t bps = bits_per_symbol(mod);
    const CVec &points = phy::constellation(mod);
    std::vector<Llr> llrs(symbols.size() * bps);
    for (std::size_t s = 0; s < symbols.size(); ++s) {
        for (std::size_t bit = 0; bit < bps; ++bit) {
            const std::size_t mask = std::size_t{1} << (bps - 1 - bit);
            float best0 = std::numeric_limits<float>::max();
            float best1 = std::numeric_limits<float>::max();
            for (std::size_t v = 0; v < points.size(); ++v) {
                const float d = std::norm(symbols[s] - points[v]);
                if (v & mask)
                    best1 = std::min(best1, d);
                else
                    best0 = std::min(best0, d);
            }
            llrs[s * bps + bit] = (best1 - best0) / noise_var;
        }
    }
    return llrs;
}

class DemapEquivalenceTest : public ::testing::TestWithParam<Modulation>
{
};

TEST_P(DemapEquivalenceTest, SeparableEqualsExhaustive)
{
    const Modulation mod = GetParam();
    Rng rng(31 + static_cast<int>(mod));
    CVec symbols(512);
    for (auto &s : symbols) {
        s = cf32(static_cast<float>(rng.next_gaussian()),
                 static_cast<float>(rng.next_gaussian()));
    }
    std::vector<Llr> fast(symbols.size() * bits_per_symbol(mod));
    phy::demodulate_soft_into(symbols, mod, 0.07f, fast);
    const auto ref = demap_reference(symbols, mod, 0.07f);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast[i], ref[i],
                    1e-3f * (1.0f + std::abs(ref[i])))
            << "i=" << i;
    }
}

TEST_P(DemapEquivalenceTest, NearestDistanceEqualsExhaustive)
{
    const Modulation mod = GetParam();
    Rng rng(77 + static_cast<int>(mod));
    const CVec &points = phy::constellation(mod);
    for (int trial = 0; trial < 200; ++trial) {
        const cf32 y(static_cast<float>(rng.next_gaussian()),
                     static_cast<float>(rng.next_gaussian()));
        float ref = std::numeric_limits<float>::max();
        for (const cf32 &p : points)
            ref = std::min(ref, std::norm(y - p));
        EXPECT_NEAR(phy::nearest_point_distance2(y, mod), ref,
                    1e-5f * (1.0f + ref));
    }
}

INSTANTIATE_TEST_SUITE_P(AllMods, DemapEquivalenceTest,
                         ::testing::Values(Modulation::kQpsk,
                                           Modulation::k16Qam,
                                           Modulation::k64Qam),
                         [](const auto &info) {
                             return modulation_name(info.param);
                         });

// ------------------------------------------------- smooth FFT costs

TEST(FftSmooth, NextFiveSmooth)
{
    EXPECT_EQ(fft::Fft::next_5_smooth(1), 1u);
    EXPECT_EQ(fft::Fft::next_5_smooth(12), 12u);
    EXPECT_EQ(fft::Fft::next_5_smooth(13), 15u);
    EXPECT_EQ(fft::Fft::next_5_smooth(492), 500u);
    EXPECT_EQ(fft::Fft::next_5_smooth(1201), 1215u);
}

TEST(FftSmooth, SmoothCostIsNearMonotoneOnAllocationGrid)
{
    // Not strictly monotone — a 270-point mixed-radix transform is
    // genuinely cheaper than a 256-point radix-2 one — but the cost
    // never drops far below the running maximum.
    std::uint64_t running_max = 0;
    for (std::size_t prb = 1; prb <= 100; ++prb) {
        const auto c = fft::Fft::op_count_smooth(12 * prb);
        if (running_max > 0) {
            EXPECT_GT(static_cast<double>(c),
                      0.8 * static_cast<double>(running_max))
                << "prb=" << prb;
        }
        running_max = std::max(running_max, c);
    }
}

TEST(FftSmooth, SmoothCostHasNoPrimeCliffs)
{
    // Ratio between adjacent allocation sizes stays bounded, unlike
    // the exact cost which can triple at a prime size.  (Tiny sizes
    // are excluded: 12 -> 24 legitimately more than doubles.)
    for (std::size_t prb = 5; prb <= 100; ++prb) {
        const double a = static_cast<double>(
            fft::Fft::op_count_smooth(12 * (prb - 1)));
        const double b =
            static_cast<double>(fft::Fft::op_count_smooth(12 * prb));
        EXPECT_LT(b / a, 1.8) << "prb=" << prb;
        EXPECT_GT(b / a, 0.7) << "prb=" << prb;
    }
}

TEST(FftSmooth, SmoothAtLeastExactForSmoothSizes)
{
    for (std::size_t n : {12u, 300u, 1200u})
        EXPECT_EQ(fft::Fft::op_count_smooth(n), fft::Fft::op_count(n));
}

// ----------------------------------------------- PRB density weight

TEST(PrbDensity, PiecewiseLevelsMatchTheMixture)
{
    using workload::PaperModel;
    // (0.4*8 + 0.2*4 + 0.3*2 + 0.1) / 200 on (0, 25] etc.
    EXPECT_NEAR(PaperModel::prb_density_weight(2), 4.7 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(25), 4.7 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(26), 1.5 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(50), 1.5 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(51), 0.7 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(100), 0.7 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(101), 0.1 / 200, 1e-12);
    EXPECT_NEAR(PaperModel::prb_density_weight(200), 0.1 / 200, 1e-12);
}

TEST(PrbDensity, MatchesEmpiricalDrawFrequencies)
{
    // Histogram actual PaperModel user sizes against the analytical
    // density (the untruncated draw is censored by the remaining
    // budget, so compare only the small-size band, which is barely
    // affected).
    workload::PaperModel model;
    std::size_t below25 = 0, band26to50 = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        for (const auto &u : model.next_subframe().users) {
            below25 += u.prb <= 25;
            band26to50 += u.prb > 25 && u.prb <= 50;
            ++total;
        }
    }
    const double p_below = static_cast<double>(below25) /
                           static_cast<double>(total);
    const double p_band = static_cast<double>(band26to50) /
                          static_cast<double>(total);
    // Analytical: 25 * 4.7/200 = 0.5875 and 25 * 1.5/200 = 0.1875.
    EXPECT_NEAR(p_below, 0.5875, 0.06);
    EXPECT_NEAR(p_band, 0.1875, 0.05);
}

// ------------------------------------------------- weighted fitting

TEST(WeightedFit, WeightsSteerTheSlope)
{
    // Two clusters with different slopes; weighting one cluster to
    // zero must recover the other's slope exactly.
    std::vector<mgmt::CalibrationSample> samples = {
        {10, 10 * 0.002, 1.0},
        {20, 20 * 0.002, 1.0},
        {100, 100 * 0.004, 0.0},
        {200, 200 * 0.004, 0.0},
    };
    mgmt::CalibrationTable table;
    table.fit(1, Modulation::kQpsk, samples);
    EXPECT_NEAR(table.get(1, Modulation::kQpsk), 0.002, 1e-12);
}

TEST(WeightedFit, RejectsNegativeWeight)
{
    std::vector<mgmt::CalibrationSample> samples = {{10, 0.1, -1.0}};
    mgmt::CalibrationTable table;
    EXPECT_THROW(table.fit(1, Modulation::kQpsk, samples),
                 std::invalid_argument);
}

// ------------------------------------------------ FFT theorems

TEST(FftTheorems, CircularShiftBecomesPhaseRamp)
{
    // DFT shift theorem: x[(n - d) mod N] <-> X[k] * exp(-2pi i k d/N).
    const std::size_t n = 96, d = 7;
    Rng rng(55);
    CVec x(n);
    for (auto &v : x) {
        v = cf32(static_cast<float>(rng.next_gaussian()),
                 static_cast<float>(rng.next_gaussian()));
    }
    CVec shifted(n);
    for (std::size_t i = 0; i < n; ++i)
        shifted[i] = x[(i + n - d) % n];

    const CVec fx = spectrum(x);
    const CVec fs = spectrum(shifted);
    for (std::size_t k = 0; k < n; ++k) {
        const double angle = -2.0 * 3.14159265358979323846 *
                             static_cast<double>(k * d % n) /
                             static_cast<double>(n);
        const cf32 expected =
            fx[k] * cf32(static_cast<float>(std::cos(angle)),
                         static_cast<float>(std::sin(angle)));
        EXPECT_LT(std::abs(fs[k] - expected), 2e-3f) << "k=" << k;
    }
}

TEST(FftTheorems, ConjugationMirrorsSpectrum)
{
    const std::size_t n = 60;
    Rng rng(66);
    CVec x(n);
    for (auto &v : x) {
        v = cf32(static_cast<float>(rng.next_gaussian()),
                 static_cast<float>(rng.next_gaussian()));
    }
    CVec conj_x(n);
    for (std::size_t i = 0; i < n; ++i)
        conj_x[i] = std::conj(x[i]);
    const CVec fx = spectrum(x);
    const CVec fc = spectrum(conj_x);
    for (std::size_t k = 0; k < n; ++k) {
        const cf32 expected = std::conj(fx[(n - k) % n]);
        EXPECT_LT(std::abs(fc[k] - expected), 2e-3f);
    }
}

// ---------------------------------------------- QPP dispersion

TEST(QppProperty, InterleaverBreaksAdjacency)
{
    // A good turbo interleaver maps adjacent positions far apart:
    // the minimum output distance of adjacent inputs (spread) must
    // exceed a useful bound for every supported size class.
    for (std::size_t k : {40u, 128u, 512u}) {
        phy::QppInterleaver pi(k);
        std::size_t min_spread = k;
        for (std::size_t i = 0; i + 1 < k; ++i) {
            const std::size_t a = pi.map(i), b = pi.map(i + 1);
            const std::size_t d = a > b ? a - b : b - a;
            min_spread = std::min(min_spread, std::min(d, k - d));
        }
        EXPECT_GE(min_spread, std::min<std::size_t>(k / 8, 32))
            << "k=" << k;
    }
}

// ------------------------------------------- op model linearity

TEST(OpModelProperty, NearLinearInPrbAcrossWholeRange)
{
    // The smooth cost model's per-PRB cost varies slowly: over the
    // 10..200 range it stays within a ~1.5x band (the FFT log factor
    // plus padding stairs; the weighted Fig. 11 fit absorbs this).
    for (std::uint32_t layers : {1u, 4u}) {
        phy::UserParams u;
        u.layers = layers;
        u.mod = Modulation::k64Qam;
        double lo = std::numeric_limits<double>::max(), hi = 0.0;
        for (std::uint32_t prb = 10; prb <= 200; prb += 2) {
            u.prb = prb;
            const double per_prb =
                static_cast<double>(
                    phy::user_task_costs(u, 4).total()) /
                prb;
            lo = std::min(lo, per_prb);
            hi = std::max(hi, per_prb);
        }
        EXPECT_LT(hi / lo, 1.55) << "layers=" << layers;
    }
}

} // namespace
} // namespace lte
