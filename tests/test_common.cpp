/**
 * @file
 * Unit tests for the common substrate: RNG determinism and
 * distribution sanity, running statistics, histograms,
 * math helpers, and error macros.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace lte {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.next_double());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    // Uniform variance is 1/12.
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.next_below(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextBelowOneIsZero)
{
    Rng rng(5);
    EXPECT_EQ(rng.next_below(1), 0u);
    EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveRange)
{
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.next_in(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.next_gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.split();
    // The child stream must differ from the parent continuation.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next_u64() == child.next_u64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoolProbabilityEdges)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.next_bool(0.0));
        EXPECT_TRUE(rng.next_bool(1.0));
    }
}

TEST(RunningStats, Empty)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, ClearResets)
{
    RunningStats s;
    s.add(1.0);
    s.clear();
    EXPECT_EQ(s.count(), 0u);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Histogram, CountsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.5);
    h.add(-100.0);  // clamps to the first bin
    h.add(100.0);   // clamps to the last bin
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_NEAR(h.bin_center(0), 0.5, 1e-12);
    EXPECT_NEAR(h.bin_center(9), 9.5, 1e-12);
}

TEST(Histogram, NonFiniteSamplesRejected)
{
    // Regression: casting NaN/inf to an integer bin index is
    // undefined behaviour; non-finite samples must be counted
    // separately and land in no bin.
    Histogram h(0.0, 10.0, 10);
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.add(std::numeric_limits<double>::infinity());
    h.add(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.non_finite(), 3u);
    for (std::size_t b = 0; b < h.bin_count(); ++b)
        EXPECT_EQ(h.count(b), 0u);
    // Finite samples still count normally afterwards, including
    // values large enough to overflow the bin product to infinity.
    h.add(5.0);
    h.add(std::numeric_limits<double>::max());
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.non_finite(), 3u);
}

TEST(MathUtil, DbRoundTrip)
{
    for (double lin : {0.001, 0.5, 1.0, 10.0, 12345.0})
        EXPECT_NEAR(from_db(to_db(lin)), lin, lin * 1e-12);
    EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
}

TEST(MathUtil, NextPow2)
{
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(2), 2u);
    EXPECT_EQ(next_pow2(3), 4u);
    EXPECT_EQ(next_pow2(1000), 1024u);
    EXPECT_EQ(next_pow2(1024), 1024u);
}

TEST(MathUtil, FiveSmooth)
{
    EXPECT_TRUE(is_5_smooth(1));
    EXPECT_TRUE(is_5_smooth(2 * 3 * 5));
    EXPECT_TRUE(is_5_smooth(1200));
    EXPECT_FALSE(is_5_smooth(7));
    EXPECT_FALSE(is_5_smooth(0));
    EXPECT_FALSE(is_5_smooth(12 * 7));
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceil_div(10, 3), 4u);
    EXPECT_EQ(ceil_div(9, 3), 3u);
    EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(Check, ThrowTypes)
{
    EXPECT_THROW(LTE_CHECK(false, "user error"), std::invalid_argument);
    EXPECT_THROW(LTE_ASSERT(false, "bug"), std::logic_error);
    EXPECT_NO_THROW(LTE_CHECK(true, ""));
    EXPECT_NO_THROW(LTE_ASSERT(true, ""));
}

TEST(Types, BitsPerSymbol)
{
    EXPECT_EQ(bits_per_symbol(Modulation::kQpsk), 2u);
    EXPECT_EQ(bits_per_symbol(Modulation::k16Qam), 4u);
    EXPECT_EQ(bits_per_symbol(Modulation::k64Qam), 6u);
}

} // namespace
} // namespace lte
