/**
 * @file
 * Modulation mapper / soft demapper tests: constellation energy and
 * Gray properties, round-trips through mapping and hard decision,
 * LLR sign structure, and noise behaviour.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "phy/modulation.hpp"

namespace lte::phy {
namespace {

/** demodulate_soft_into() on a freshly sized LLR vector. */
std::vector<Llr>
demap(CfView symbols, Modulation mod, float noise_var)
{
    std::vector<Llr> llrs(symbols.size() * bits_per_symbol(mod));
    demodulate_soft_into(symbols, mod, noise_var, llrs);
    return llrs;
}

/** hard_decision_into() on a freshly sized bit vector. */
std::vector<std::uint8_t>
harden(LlrView llrs)
{
    std::vector<std::uint8_t> bits(llrs.size());
    hard_decision_into(llrs, bits);
    return bits;
}

class ModulationTest : public ::testing::TestWithParam<Modulation>
{
};

TEST_P(ModulationTest, ConstellationHasUnitAveragePower)
{
    const CVec &points = constellation(GetParam());
    double power = 0.0;
    for (const auto &p : points)
        power += std::norm(p);
    power /= static_cast<double>(points.size());
    EXPECT_NEAR(power, 1.0, 1e-5);
}

TEST_P(ModulationTest, ConstellationPointsDistinct)
{
    const CVec &points = constellation(GetParam());
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j)
            EXPECT_GT(std::abs(points[i] - points[j]), 1e-3f);
    }
}

TEST_P(ModulationTest, MapDemapRoundTripNoiseless)
{
    const Modulation mod = GetParam();
    const std::size_t bps = bits_per_symbol(mod);
    Rng rng(77);
    std::vector<std::uint8_t> bits(bps * 256);
    for (auto &b : bits)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);

    const CVec symbols = modulate(bits, mod);
    EXPECT_EQ(harden(demap(symbols, mod, 0.01f)), bits);
}

TEST_P(ModulationTest, RoundTripSurvivesModerateNoise)
{
    const Modulation mod = GetParam();
    const std::size_t bps = bits_per_symbol(mod);
    Rng rng(88);
    std::vector<std::uint8_t> bits(bps * 512);
    for (auto &b : bits)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);

    CVec symbols = modulate(bits, mod);
    // 30 dB SNR: far above threshold for all three modulations.
    const float noise_std = std::sqrt(0.001f / 2.0f);
    for (auto &s : symbols) {
        s += cf32(static_cast<float>(rng.next_gaussian()) * noise_std,
                  static_cast<float>(rng.next_gaussian()) * noise_std);
    }
    EXPECT_EQ(harden(demap(symbols, mod, 0.001f)), bits);
}

TEST_P(ModulationTest, LlrMagnitudeScalesWithNoiseVariance)
{
    const Modulation mod = GetParam();
    const std::size_t bps = bits_per_symbol(mod);
    std::vector<std::uint8_t> bits(bps, 0);
    const CVec symbols = modulate(bits, mod);

    const auto llr_low = demap(symbols, mod, 0.01f);
    const auto llr_high = demap(symbols, mod, 1.0f);
    for (std::size_t i = 0; i < llr_low.size(); ++i)
        EXPECT_NEAR(llr_low[i], llr_high[i] * 100.0f,
                    std::abs(llr_low[i]) * 1e-3f);
}

TEST_P(ModulationTest, EachBitPatternMapsToItsConstellationPoint)
{
    const Modulation mod = GetParam();
    const std::size_t bps = bits_per_symbol(mod);
    const CVec &points = constellation(mod);
    for (std::size_t v = 0; v < points.size(); ++v) {
        std::vector<std::uint8_t> bits(bps);
        for (std::size_t i = 0; i < bps; ++i)
            bits[i] =
                static_cast<std::uint8_t>((v >> (bps - 1 - i)) & 1);
        const CVec s = modulate(bits, mod);
        ASSERT_EQ(s.size(), 1u);
        EXPECT_LT(std::abs(s[0] - points[v]), 1e-6f);
    }
}

INSTANTIATE_TEST_SUITE_P(AllMods, ModulationTest,
                         ::testing::Values(Modulation::kQpsk,
                                           Modulation::k16Qam,
                                           Modulation::k64Qam),
                         [](const auto &info) {
                             return modulation_name(info.param);
                         });

TEST(Modulation, QpskMapsToExpectedQuadrants)
{
    const float a = 1.0f / std::sqrt(2.0f);
    const CVec s = modulate({0, 0, 0, 1, 1, 0, 1, 1}, Modulation::kQpsk);
    EXPECT_LT(std::abs(s[0] - cf32(a, a)), 1e-6f);
    EXPECT_LT(std::abs(s[1] - cf32(a, -a)), 1e-6f);
    EXPECT_LT(std::abs(s[2] - cf32(-a, a)), 1e-6f);
    EXPECT_LT(std::abs(s[3] - cf32(-a, -a)), 1e-6f);
}

TEST(Modulation, SixteenQamGrayNeighbours)
{
    // Gray mapping: adjacent constellation points along an axis differ
    // in exactly one bit of the axis-controlling pair.
    const CVec &points = constellation(Modulation::k16Qam);
    // Point indices for bit patterns b0 b1 b2 b3. Walk I-axis levels
    // via (b0, b2): 11 -> -3, 10 -> -1, 00 -> +1, 01 -> +3.
    const float a = 1.0f / std::sqrt(10.0f);
    const std::size_t idx_m3 = 0b1010, idx_m1 = 0b1000,
                      idx_p1 = 0b0000, idx_p3 = 0b0010;
    EXPECT_NEAR(points[idx_m3].real(), -3 * a, 1e-6f);
    EXPECT_NEAR(points[idx_m1].real(), -1 * a, 1e-6f);
    EXPECT_NEAR(points[idx_p1].real(), +1 * a, 1e-6f);
    EXPECT_NEAR(points[idx_p3].real(), +3 * a, 1e-6f);
}

TEST(Modulation, RejectsRaggedBitCount)
{
    EXPECT_THROW(modulate({0, 1, 0}, Modulation::kQpsk),
                 std::invalid_argument);
    EXPECT_THROW(modulate({0, 1, 0, 1, 1}, Modulation::k16Qam),
                 std::invalid_argument);
}

TEST(Modulation, NonPositiveNoiseClampsToFloor)
{
    // Degenerate noise estimates (zero, negative, NaN) must not abort
    // the pipeline mid-subframe: they clamp to kDemodNoiseFloor and
    // produce the same finite LLRs an explicit floor would.
    const CVec s = {cf32(1.0f, 0.0f), cf32(-0.3f, 0.7f)};
    const auto at_floor = demap(s, Modulation::kQpsk, kDemodNoiseFloor);
    for (const float bad : {0.0f, -1.0f,
                            std::numeric_limits<float>::quiet_NaN()}) {
        const auto llrs = demap(s, Modulation::kQpsk, bad);
        ASSERT_EQ(llrs.size(), at_floor.size());
        for (std::size_t i = 0; i < llrs.size(); ++i) {
            EXPECT_TRUE(std::isfinite(llrs[i]));
            EXPECT_EQ(llrs[i], at_floor[i]);
        }
    }
}

/**
 * The hoisted EVM kernel must equal the per-symbol loop bit for bit:
 * the same float distance per symbol, widened and added in symbol
 * order, for every length across the SIMD block/tail split.  NaN and
 * infinite components must keep the running minimum exactly as
 * std::min(best, d) does (a NaN distance never replaces it).
 */
TEST(Modulation, AccumulatedDistanceMatchesPerSymbolLoopBitForBit)
{
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const cf32 specials[] = {cf32(kNan, 0.3f), cf32(-0.2f, kNan),
                             cf32(kNan, kNan), cf32(kInf, -0.1f),
                             cf32(0.4f, -kInf)};
    Rng rng(31);
    for (Modulation mod :
         {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
        for (std::size_t len = 0; len <= 37; ++len) {
            CVec y(len);
            for (auto &s : y) {
                s = cf32(static_cast<float>(rng.next_gaussian()),
                         static_cast<float>(rng.next_gaussian()));
            }
            // Clean input first, then one special symbol at the middle
            // and at the end (a vector lane or the scalar tail).
            std::vector<CVec> cases = {y};
            for (const cf32 &bad : specials) {
                for (std::size_t at : {len / 2, len - 1}) {
                    if (len == 0)
                        continue;
                    CVec v = y;
                    v[at] = bad;
                    cases.push_back(v);
                }
            }
            for (const CVec &v : cases) {
                double ref = 0.25;
                for (const cf32 &s : v)
                    ref += nearest_point_distance2(s, mod);
                const double got =
                    accumulate_nearest_distance2(v, mod, 0.25);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                          std::bit_cast<std::uint64_t>(ref))
                    << "mod " << static_cast<int>(mod) << " len " << len
                    << ": " << got << " vs " << ref;
            }
        }
    }
}

TEST(Modulation, HardDecisionSignConvention)
{
    const std::vector<Llr> llrs = {1.5f, -0.5f, 0.0f};
    EXPECT_EQ(harden(llrs), (std::vector<std::uint8_t>{0, 1, 0}));
}

} // namespace
} // namespace lte::phy
