/**
 * @file
 * Rate-matching tests: circular-buffer coverage, redundancy-version
 * offsets, round trips at rate 1/3, puncturing to higher rates, and
 * HARQ soft combining across retransmissions.
 */
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "phy/rate_matching.hpp"
#include "phy/turbo.hpp"

namespace lte::phy {
namespace {

std::vector<std::uint8_t>
random_bits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> bits(n);
    for (auto &b : bits)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);
    return bits;
}

/** Fixed-budget max-log-MAP decode of one block (no CRC early exit)
 *  on a fresh workspace. */
std::vector<std::uint8_t>
decode(LlrView llrs, std::size_t k, const TurboDecoderConfig &cfg = {})
{
    TurboWorkspace ws;
    std::vector<std::uint8_t> bits(k);
    turbo_decode_block_into(llrs, k, qpp_interleaver(k), cfg,
                            /*crc_poly=*/0, ws, bits);
    return bits;
}

std::vector<Llr>
to_llrs(const std::vector<std::uint8_t> &bits, double noise_std,
        Rng &rng)
{
    std::vector<Llr> llrs(bits.size());
    const double scale = 2.0 / (noise_std * noise_std);
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const double tx = bits[i] ? -1.0 : 1.0;
        llrs[i] = static_cast<Llr>(
            scale * (tx + noise_std * rng.next_gaussian()));
    }
    return llrs;
}

TEST(RateMatcher, BufferCoversEveryCodedBitExactlyOnce)
{
    const std::size_t k = 104;
    RateMatcher rm(k);
    // Selecting a full buffer length from rv 0 must deliver every
    // coded bit exactly once (NULLs are skipped).
    // Count per-position occurrences by accumulating unit LLRs over
    // exactly one full wrap of the circular buffer.
    auto soft = rm.empty_soft_buffer();
    const std::vector<Llr> ones(rm.coded_size(), 1.0f);
    rm.accumulate(soft, ones, 0);
    for (std::size_t i = 0; i < soft.size(); ++i)
        EXPECT_EQ(soft[i], 1.0f) << "i=" << i;
}

TEST(RateMatcher, RvOffsetsAreDistinctAndInRange)
{
    RateMatcher rm(256);
    std::set<std::size_t> offsets;
    for (unsigned rv = 0; rv <= 3; ++rv) {
        const auto off = rm.rv_offset(rv);
        EXPECT_LT(off, rm.buffer_size());
        offsets.insert(off);
    }
    EXPECT_EQ(offsets.size(), 4u);
    EXPECT_THROW(rm.rv_offset(4), std::invalid_argument);
}

TEST(RateMatcher, FullRateRoundTripDecodes)
{
    const std::size_t k = 128;
    RateMatcher rm(k);
    const auto info = random_bits(k, 2);
    const auto coded = turbo_encode(info);
    const auto tx = rm.select(coded, rm.coded_size(), 0);

    auto soft = rm.empty_soft_buffer();
    std::vector<Llr> llrs(tx.size());
    for (std::size_t i = 0; i < tx.size(); ++i)
        llrs[i] = tx[i] ? -8.0f : 8.0f;
    rm.accumulate(soft, llrs, 0);
    EXPECT_EQ(decode(soft, k), info);
}

TEST(RateMatcher, PuncturedRateOneHalfStillDecodesCleanly)
{
    const std::size_t k = 256;
    RateMatcher rm(k);
    const auto info = random_bits(k, 3);
    const auto coded = turbo_encode(info);
    const std::size_t e = 2 * k; // rate ~1/2
    const auto tx = rm.select(coded, e, 0);
    ASSERT_EQ(tx.size(), e);

    auto soft = rm.empty_soft_buffer();
    std::vector<Llr> llrs(e);
    for (std::size_t i = 0; i < e; ++i)
        llrs[i] = tx[i] ? -8.0f : 8.0f;
    rm.accumulate(soft, llrs, 0);
    EXPECT_EQ(decode(soft, k), info);
}

TEST(RateMatcher, RepetitionAccumulatesLlrMagnitude)
{
    const std::size_t k = 64;
    RateMatcher rm(k);
    const auto coded = turbo_encode(random_bits(k, 4));
    // Transmit two full wraps: every bit arrives twice.
    const std::size_t e = 2 * rm.coded_size();
    const auto tx = rm.select(coded, e, 0);
    auto soft = rm.empty_soft_buffer();
    std::vector<Llr> llrs(e, 0.0f);
    for (std::size_t i = 0; i < e; ++i)
        llrs[i] = tx[i] ? -1.0f : 1.0f;
    rm.accumulate(soft, llrs, 0);
    for (std::size_t i = 0; i < soft.size(); ++i)
        EXPECT_EQ(std::abs(soft[i]), 2.0f) << "i=" << i;
}

TEST(RateMatcher, HarqCombiningBeatsSingleTransmission)
{
    // At a noise level where one rate-1/2 transmission fails, two
    // combined transmissions (rv 0 then rv 2) must decode.
    const std::size_t k = 256;
    RateMatcher rm(k);
    const auto info = random_bits(k, 5);
    const auto coded = turbo_encode(info);
    const std::size_t e = 2 * k;

    std::size_t single_failures = 0, combined_failures = 0;
    for (int trial = 0; trial < 6; ++trial) {
        Rng rng(900 + trial);
        const double noise = 1.1; // fails rate 1/2, decodes combined

        const auto tx0 = rm.select(coded, e, 0);
        const auto llrs0 = to_llrs(tx0, noise, rng);
        auto soft = rm.empty_soft_buffer();
        rm.accumulate(soft, llrs0, 0);
        if (decode(soft, k) != info)
            ++single_failures;

        const auto tx2 = rm.select(coded, e, 2);
        const auto llrs2 = to_llrs(tx2, noise, rng);
        rm.accumulate(soft, llrs2, 2);
        if (decode(soft, k) != info)
            ++combined_failures;
    }
    EXPECT_GT(single_failures, 0u);
    EXPECT_EQ(combined_failures, 0u);
}

TEST(RateMatcher, RejectsInvalidUse)
{
    EXPECT_THROW(RateMatcher rm(7), std::invalid_argument);
    RateMatcher rm(64);
    EXPECT_THROW(rm.select(std::vector<std::uint8_t>(10), 10, 0),
                 std::invalid_argument);
    auto soft = rm.empty_soft_buffer();
    soft.pop_back();
    EXPECT_THROW(rm.accumulate(soft, std::vector<Llr>(10), 0),
                 std::invalid_argument);
}

} // namespace
} // namespace lte::phy
