/**
 * @file
 * Tests for the smaller PHY kernels: Zadoff-Chu/DMRS sequences, the
 * block interleaver, CRC-24, and the analytical op model.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "phy/crc.hpp"
#include "phy/interleaver.hpp"
#include "phy/op_model.hpp"
#include "phy/zadoff_chu.hpp"

namespace lte::phy {
namespace {

// ---------------------------------------------------------------- ZC

TEST(ZadoffChu, UnitMagnitude)
{
    const CVec zc = zadoff_chu(5, 139);
    for (const auto &s : zc)
        EXPECT_NEAR(std::abs(s), 1.0f, 1e-5f);
}

TEST(ZadoffChu, ConstantAmplitudeFlatSpectrum)
{
    // A prime-length ZC sequence has a perfectly flat DFT magnitude
    // (CAZAC property).
    const std::size_t n = 139;
    const CVec zc = zadoff_chu(7, n);
    CVec freq(n);
    fft::FftCache::instance().plan(n).forward(zc.data(), freq.data());
    const float expected = std::sqrt(static_cast<float>(n));
    for (const auto &s : freq)
        EXPECT_NEAR(std::abs(s), expected, 2e-2f);
}

TEST(ZadoffChu, DifferentRootsHaveLowCrossCorrelation)
{
    const std::size_t n = 139;
    const CVec a = zadoff_chu(3, n), b = zadoff_chu(5, n);
    cf64 acc(0.0, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        acc += cf64(a[i].real(), a[i].imag()) *
               std::conj(cf64(b[i].real(), b[i].imag()));
    // Cross-correlation of distinct prime-length ZC roots is sqrt(n).
    EXPECT_LT(std::abs(acc), 2.0 * std::sqrt(static_cast<double>(n)));
}

TEST(ZadoffChu, RejectsBadRoot)
{
    EXPECT_THROW(zadoff_chu(0, 11), std::invalid_argument);
    EXPECT_THROW(zadoff_chu(11, 11), std::invalid_argument);
}

TEST(ZadoffChu, LargestPrimeBelow)
{
    EXPECT_EQ(largest_prime_below(12), 11u);
    EXPECT_EQ(largest_prime_below(13), 13u);
    EXPECT_EQ(largest_prime_below(1200), 1193u);
    EXPECT_EQ(largest_prime_below(2), 2u);
}

TEST(Dmrs, BaseSequenceLengthAndMagnitude)
{
    for (std::size_t prb : {1u, 4u, 25u, 100u}) {
        const CVec seq = dmrs_base_sequence(prb * kScPerPrb, 3);
        EXPECT_EQ(seq.size(), prb * kScPerPrb);
        for (const auto &s : seq)
            EXPECT_NEAR(std::abs(s), 1.0f, 1e-5f);
    }
}

TEST(Dmrs, RejectsNonPrbMultiple)
{
    EXPECT_THROW(dmrs_base_sequence(13, 1), std::invalid_argument);
    EXPECT_THROW(dmrs_base_sequence(0, 1), std::invalid_argument);
}

TEST(Dmrs, LayerShiftsAreOrthogonalInDelayDomain)
{
    // The IFFT of conj(layer_i) * layer_j must concentrate its energy
    // at delay bin (j - i) * n/4 — that separation is what the channel
    // estimator's window exploits.
    const std::size_t m = 300;
    const CVec base = dmrs_base_sequence(m, 5);
    const CVec l0 = dmrs_for_layer(base, 0);
    const CVec l2 = dmrs_for_layer(base, 2);
    CVec prod(m);
    for (std::size_t k = 0; k < m; ++k)
        prod[k] = l2[k] * std::conj(l0[k]);
    CVec delay(m);
    fft::FftCache::instance().plan(m).inverse(prod.data(), delay.data());
    // Peak must be at bin 2*m/4 = m/2.
    std::size_t peak = 0;
    float best = 0.0f;
    for (std::size_t i = 0; i < m; ++i) {
        if (std::abs(delay[i]) > best) {
            best = std::abs(delay[i]);
            peak = i;
        }
    }
    EXPECT_EQ(peak, m / 2);
}

TEST(Dmrs, UserSequencesDifferBySlotAndUser)
{
    const std::size_t m = 120;
    const CVec a = user_dmrs(1, 0, m, 0);
    const CVec b = user_dmrs(1, 1, m, 0);
    const CVec c = user_dmrs(2, 0, m, 0);
    float dab = 0.0f, dac = 0.0f;
    for (std::size_t i = 0; i < m; ++i) {
        dab = std::max(dab, std::abs(a[i] - b[i]));
        dac = std::max(dac, std::abs(a[i] - c[i]));
    }
    EXPECT_GT(dab, 0.1f);
    EXPECT_GT(dac, 0.1f);
}

// -------------------------------------------------------- interleaver

TEST(Interleaver, RoundTripExactForManyLengths)
{
    Rng rng(5);
    for (std::size_t n : {1u, 5u, 12u, 13u, 24u, 100u, 144u, 1200u}) {
        CVec in(n);
        for (auto &v : in) {
            v = cf32(static_cast<float>(rng.next_gaussian()),
                     static_cast<float>(rng.next_gaussian()));
        }
        CVec round(n);
        deinterleave_into(interleave(in),
                          interleave_permutation(n, kInterleaverColumns),
                          round);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(round[i], in[i]) << "n=" << n << " i=" << i;
    }
}

TEST(Interleaver, PermutationIsBijective)
{
    for (std::size_t n : {12u, 36u, 61u, 144u}) {
        auto perm = interleave_permutation(n, kInterleaverColumns);
        ASSERT_EQ(perm.size(), n);
        std::vector<bool> seen(n, false);
        for (std::size_t p : perm) {
            ASSERT_LT(p, n);
            EXPECT_FALSE(seen[p]);
            seen[p] = true;
        }
    }
}

TEST(Interleaver, ActuallyPermutes)
{
    // For any length > columns the permutation must not be identity.
    CVec in(48);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = cf32(static_cast<float>(i), 0.0f);
    const CVec out = interleave(in);
    EXPECT_NE(out, in);
}

TEST(Interleaver, KnownSmallExample)
{
    // n = 6, columns = 3: matrix [0 1 2; 3 4 5], column read: 0 3 1 4 2 5.
    CVec in(6);
    for (std::size_t i = 0; i < 6; ++i)
        in[i] = cf32(static_cast<float>(i), 0.0f);
    const CVec out = interleave(in, 3);
    const std::vector<float> expect = {0, 3, 1, 4, 2, 5};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(out[i].real(), expect[i]);
}

// ---------------------------------------------------------------- CRC

TEST(Crc, AttachThenCheckPasses)
{
    Rng rng(9);
    for (std::size_t len : {1u, 8u, 100u, 1000u}) {
        std::vector<std::uint8_t> bits(len);
        for (auto &b : bits)
            b = static_cast<std::uint8_t>(rng.next_u64() & 1);
        const auto framed = crc24_attach(bits);
        EXPECT_EQ(framed.size(), len + 24);
        EXPECT_TRUE(crc24_check(framed));
    }
}

TEST(Crc, DetectsEverySingleBitFlip)
{
    std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0,
                                      1, 1, 1, 0, 0, 1, 0, 1};
    const auto framed = crc24_attach(bits);
    for (std::size_t i = 0; i < framed.size(); ++i) {
        auto corrupted = framed;
        corrupted[i] ^= 1;
        EXPECT_FALSE(crc24_check(corrupted)) << "flip at " << i;
    }
}

TEST(Crc, DetectsBurstErrors)
{
    Rng rng(10);
    std::vector<std::uint8_t> bits(200);
    for (auto &b : bits)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);
    const auto framed = crc24_attach(bits);
    // All bursts up to 24 bits long must be detected.
    for (std::size_t burst = 2; burst <= 24; ++burst) {
        auto corrupted = framed;
        for (std::size_t i = 50; i < 50 + burst; ++i)
            corrupted[i] ^= 1;
        EXPECT_FALSE(crc24_check(corrupted)) << "burst " << burst;
    }
}

TEST(Crc, ZeroMessageHasZeroCrc)
{
    // All-zero input keeps the LFSR at zero.
    const std::vector<std::uint8_t> zeros(64, 0);
    EXPECT_EQ(crc24(zeros), 0u);
}

TEST(Crc, BPolynomialDiffersFromA)
{
    std::vector<std::uint8_t> bits = {1, 1, 0, 1, 0, 1, 1, 0};
    EXPECT_NE(crc24(bits, kCrc24APoly), crc24(bits, kCrc24BPoly));
}

TEST(Crc, TooShortSequenceFailsCheck)
{
    EXPECT_FALSE(crc24_check({1, 0, 1}));
}

TEST(Crc, RejectsNonBinaryInput)
{
    EXPECT_THROW(crc24({0, 2, 1}), std::invalid_argument);
}

/** The TS 36.212 division one bit at a time: the form the byte tables
 *  must reproduce for every length and polynomial. */
std::uint32_t
crc24_bit_serial(const std::vector<std::uint8_t> &bits, std::uint32_t poly)
{
    std::uint32_t reg = 0;
    for (std::uint8_t bit : bits) {
        const std::uint32_t msb = (reg >> 23) & 1u;
        reg = (reg << 1) & 0xFFFFFFu;
        if (msb ^ bit)
            reg ^= poly & 0xFFFFFFu;
    }
    return reg;
}

TEST(Crc, TableMatchesBitSerialReferenceForEveryLength)
{
    // CRC-24A and CRC-24B take the byte tables; 0x5D6DCB (the FlexRay
    // CRC-24) takes the generic path.
    Rng rng(12);
    for (std::uint32_t poly : {kCrc24APoly, kCrc24BPoly, 0x5D6DCBu}) {
        for (std::size_t len = 0; len <= 257; ++len) {
            std::vector<std::uint8_t> bits(len);
            for (auto &b : bits)
                b = static_cast<std::uint8_t>(rng.next_u64() & 1);
            ASSERT_EQ(crc24(bits, poly), crc24_bit_serial(bits, poly))
                << "poly " << poly << " length " << len;
        }
    }
}

TEST(Crc, RejectsNonBinaryBitInFullByteAndRaggedTail)
{
    // 21 bits: two full bytes on the table path, then 5 ragged bits.
    for (std::uint32_t poly : {kCrc24APoly, kCrc24BPoly, 0x5D6DCBu}) {
        for (std::size_t bad : {3u, 15u, 16u, 20u}) {
            for (std::uint8_t value : {2u, 0x80u, 0xFFu}) {
                std::vector<std::uint8_t> bits(21, 1);
                bits[bad] = value;
                try {
                    crc24(bits, poly);
                    ADD_FAILURE() << "no throw for bit " << bad;
                } catch (const std::invalid_argument &e) {
                    EXPECT_NE(std::string(e.what()).find(
                                  "bits must be 0 or 1"),
                              std::string::npos);
                }
            }
        }
    }
}

// ----------------------------------------------------------- op model

TEST(OpModel, LinearishInPrbs)
{
    // Doubling PRBs should roughly double total cost (the linearity
    // behind the paper's Fig. 11).
    UserParams u;
    u.layers = 2;
    u.mod = Modulation::k16Qam;
    u.prb = 50;
    const auto c50 = user_task_costs(u, 4);
    u.prb = 100;
    const auto c100 = user_task_costs(u, 4);
    const double ratio = static_cast<double>(c100.total()) /
                         static_cast<double>(c50.total());
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 2.4);
}

TEST(OpModel, InverseOpCountScalesCubically)
{
    EXPECT_EQ(matrix_inverse_op_count(2) * 8, matrix_inverse_op_count(4));
    EXPECT_GT(matrix_inverse_op_count(1), 0u);
    // Gauss-Jordan on [A | I]: 2n^3 complex MACs at 8 flops each.
    EXPECT_EQ(matrix_inverse_op_count(3), 2u * 27u * 8u);
}

TEST(OpModel, MoreLayersCostMore)
{
    UserParams u;
    u.prb = 60;
    u.mod = Modulation::kQpsk;
    std::uint64_t prev = 0;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        u.layers = l;
        const auto c = user_task_costs(u, 4);
        EXPECT_GT(c.total(), prev) << "layers=" << l;
        prev = c.total();
    }
}

TEST(OpModel, HigherModulationCostsMore)
{
    UserParams u;
    u.prb = 60;
    u.layers = 2;
    u.mod = Modulation::kQpsk;
    const auto qpsk = user_task_costs(u, 4);
    u.mod = Modulation::k64Qam;
    const auto qam64 = user_task_costs(u, 4);
    EXPECT_GT(qam64.total(), qpsk.total());
    // Only the tail depends on modulation.
    EXPECT_EQ(qam64.chanest_task, qpsk.chanest_task);
    EXPECT_EQ(qam64.demod_task, qpsk.demod_task);
    EXPECT_GT(qam64.tail, qpsk.tail);
}

TEST(OpModel, TaskCountsMatchPaperStructure)
{
    UserParams u;
    u.prb = 20;
    u.layers = 4;
    const auto c = user_task_costs(u, 4);
    EXPECT_EQ(c.n_chanest_tasks, 16u); // 4 antennas x 4 layers
    EXPECT_EQ(c.n_demod_tasks, 24u);   // 6 symbols x 4 layers
}

} // namespace
} // namespace lte::phy
