/**
 * @file
 * Turbo codec tests: QPP interleaver validity, encoder structure,
 * noiseless and noisy decode, coding gain over uncoded transmission,
 * and the pass-through mode the paper's pipeline uses by default.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "phy/crc.hpp"
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

/** BPSK map coded bits to LLRs at the given noise level. */
std::vector<Llr>
to_llrs(const std::vector<std::uint8_t> &coded, double noise_std,
        Rng &rng)
{
    std::vector<Llr> llrs(coded.size());
    const double scale = 2.0 / (noise_std * noise_std);
    for (std::size_t i = 0; i < coded.size(); ++i) {
        const double tx = coded[i] ? -1.0 : 1.0;
        const double rx = tx + noise_std * rng.next_gaussian();
        llrs[i] = static_cast<Llr>(scale * rx);
    }
    return llrs;
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

TEST(Qpp, AnchorParametersMatchSpec)
{
    const QppInterleaver k40(40);
    EXPECT_EQ(k40.f1(), 3u);
    EXPECT_EQ(k40.f2(), 10u);
    const QppInterleaver k6144(6144);
    EXPECT_EQ(k6144.f1(), 263u);
    EXPECT_EQ(k6144.f2(), 480u);
}

TEST(Qpp, PermutationIsBijective)
{
    for (std::size_t k : {40u, 64u, 128u, 136u, 512u, 1000u}) {
        const QppInterleaver pi(k);
        std::vector<bool> seen(k, false);
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t p = pi.map(i);
            ASSERT_LT(p, k);
            EXPECT_FALSE(seen[p]) << "k=" << k;
            seen[p] = true;
        }
    }
}

TEST(Qpp, RejectsOddOrTinySizes)
{
    EXPECT_THROW(QppInterleaver pi(7), std::invalid_argument);
    EXPECT_THROW(QppInterleaver pi(41), std::invalid_argument);
    EXPECT_THROW(QppInterleaver pi(42), std::invalid_argument);
}

TEST(TurboEncode, OutputLength)
{
    for (std::size_t k : {40u, 104u, 512u})
        EXPECT_EQ(turbo_encode(random_bits(k, k)).size(), 3 * k + 12);
}

TEST(TurboEncode, SystematicPartIsInput)
{
    const auto info = random_bits(64, 5);
    const auto coded = turbo_encode(info);
    for (std::size_t i = 0; i < info.size(); ++i)
        EXPECT_EQ(coded[i], info[i]);
}

TEST(TurboEncode, AllZeroInputGivesAllZeroCodeword)
{
    const std::vector<std::uint8_t> zeros(40, 0);
    const auto coded = turbo_encode(zeros);
    for (std::uint8_t b : coded)
        EXPECT_EQ(b, 0);
}

TEST(TurboEncode, RejectsInvalidInput)
{
    EXPECT_THROW(turbo_encode(std::vector<std::uint8_t>(7, 0)),
                 std::invalid_argument);
    EXPECT_THROW(turbo_encode({0, 1, 2, 0, 1, 0, 1, 0}),
                 std::invalid_argument);
}

class TurboDecodeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TurboDecodeTest, NoiselessDecodeIsExact)
{
    const std::size_t k = GetParam();
    const auto info = random_bits(k, 100 + k);
    const auto coded = turbo_encode(info);
    std::vector<Llr> llrs(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i)
        llrs[i] = coded[i] ? -10.0f : 10.0f;
    EXPECT_EQ(decode(llrs, k), info);
}

TEST_P(TurboDecodeTest, DecodesAtModerateSnr)
{
    const std::size_t k = GetParam();
    const auto info = random_bits(k, 200 + k);
    const auto coded = turbo_encode(info);
    Rng rng(300 + k);
    // Es/N0 ~ 0.9 dB on the rate-1/3 code: comfortably decodable.
    const auto llrs = to_llrs(coded, 0.9, rng);
    EXPECT_EQ(decode(llrs, k), info);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TurboDecodeTest,
                         ::testing::Values<std::size_t>(40, 64, 128, 256),
                         [](const auto &info) {
                             return "k" + std::to_string(info.param);
                         });

TEST(TurboDecode, PuncturedRateOneHalfDecodesCleanly)
{
    // Erase every other bit of each parity stream (LLR 0, alternating
    // between the two encoders): about rate 1/2, still exact noiseless.
    for (std::size_t k : {40u, 64u, 128u, 256u}) {
        const auto info = random_bits(k, 100 + k);
        const auto coded = turbo_encode(info);
        std::vector<Llr> llrs(coded.size());
        for (std::size_t i = 0; i < coded.size(); ++i)
            llrs[i] = coded[i] ? -8.0f : 8.0f;
        for (std::size_t i = 0; i < k; ++i)
            llrs[(i % 2 == 0 ? k : 2 * k) + i] = 0.0f;
        EXPECT_EQ(decode(llrs, k), info) << "k=" << k;
    }
}

TEST(TurboDecode, OutperformsUncodedAtLowSnr)
{
    // At a noise level where uncoded BPSK has a few percent bit error
    // rate, the turbo code should be (near-)error-free.
    const std::size_t k = 256;
    const double noise_std = 1.0; // ~16% raw BER on BPSK
    std::size_t turbo_errors = 0, uncoded_errors = 0, total = 0;
    for (int trial = 0; trial < 5; ++trial) {
        const auto info = random_bits(k, 400 + trial);
        const auto coded = turbo_encode(info);
        Rng rng(500 + trial);
        const auto llrs = to_llrs(coded, noise_std, rng);
        const auto decoded = decode(llrs, k);
        for (std::size_t i = 0; i < k; ++i) {
            // Uncoded decision: sign of the systematic LLR.
            const std::uint8_t raw = llrs[i] >= 0.0f ? 0 : 1;
            turbo_errors += decoded[i] != info[i];
            uncoded_errors += raw != info[i];
            ++total;
        }
    }
    EXPECT_GT(uncoded_errors, total / 50);
    EXPECT_LT(turbo_errors, uncoded_errors / 10);
}

TEST(TurboDecode, MoreIterationsNeverHurtMuch)
{
    const std::size_t k = 128;
    const auto info = random_bits(k, 900);
    const auto coded = turbo_encode(info);
    Rng rng(901);
    const auto llrs = to_llrs(coded, 0.95, rng);

    TurboDecoderConfig one;
    one.iterations = 1;
    TurboDecoderConfig eight;
    eight.iterations = 8;
    std::size_t err1 = 0, err8 = 0;
    const auto d1 = decode(llrs, k, one);
    const auto d8 = decode(llrs, k, eight);
    for (std::size_t i = 0; i < k; ++i) {
        err1 += d1[i] != info[i];
        err8 += d8[i] != info[i];
    }
    EXPECT_LE(err8, err1);
}

TEST(TurboDecode, RejectsMismatchedLength)
{
    TurboWorkspace ws;
    std::vector<std::uint8_t> bits(40);
    EXPECT_THROW(turbo_decode_block_into(std::vector<Llr>(100), 40,
                                         qpp_interleaver(40), {}, 0, ws,
                                         bits),
                 std::invalid_argument);
}

TEST(TurboPassthrough, HardDecidesLlrs)
{
    const std::vector<Llr> llrs = {2.0f, -1.0f, 0.5f, -0.1f};
    std::vector<std::uint8_t> bits(llrs.size());
    turbo_passthrough_into(llrs, bits);
    EXPECT_EQ(bits, (std::vector<std::uint8_t>{0, 1, 0, 1}));
}

TEST(TurboSegmentation, PropertiesAcrossCapacities)
{
    for (std::size_t capacity = 200; capacity <= 345600;
         capacity += 1777) {
        const TurboSegmentation seg = turbo_segment(capacity);
        EXPECT_GE(seg.n_blocks, 1u);
        EXPECT_LE(seg.n_blocks, kMaxTurboCodeblocks);
        EXPECT_EQ(seg.block_info_bits % 8, 0u);
        EXPECT_LE(seg.block_info_bits, kMaxTurboBlockBits);
        EXPECT_LE(seg.coded_bits(), capacity);
        EXPECT_GT(seg.tb_bits(), 24u);
        if (seg.n_blocks > 1) {
            // Minimality: one fewer block would overflow the trellis.
            const std::size_t per =
                capacity / (seg.n_blocks - 1) - kTurboTailBits;
            std::size_t k = per / 3;
            k -= k % 8;
            EXPECT_GT(k, kMaxTurboBlockBits);
            // Multi-block segments carry a CRC-24B per block.
            EXPECT_EQ(seg.block_data_bits(),
                      seg.block_info_bits - 24);
        } else {
            EXPECT_EQ(seg.block_data_bits(), seg.block_info_bits);
        }
    }
}

TEST(TurboSegmentation, MaxAllocationSegmentsInto19Blocks)
{
    // 200 PRB x 4 layers x 64QAM = 345600 coded bits.
    const TurboSegmentation seg = turbo_segment(345600);
    EXPECT_EQ(seg.n_blocks, 19u);
    EXPECT_EQ(seg.block_info_bits, 6056u);
    EXPECT_EQ(seg.tb_bits(), 19u * 6032u);
    EXPECT_LE(seg.coded_bits(), 345600u);
}

/** Decode one block into a fresh bit vector via the workspace API. */
std::pair<std::vector<std::uint8_t>, TurboDecodeResult>
decode_block(const std::vector<Llr> &llrs, std::size_t k,
             const TurboDecoderConfig &cfg, std::uint32_t crc_poly = 0)
{
    const QppInterleaver &pi = qpp_interleaver(k);
    TurboWorkspace ws;
    ws.reserve(k);
    std::vector<std::uint8_t> bits(k, 0);
    const TurboDecodeResult res = turbo_decode_block_into(
        llrs, k, pi, cfg, crc_poly, ws, BitSpan(bits.data(), k));
    return {std::move(bits), res};
}

class TurboSimdParityTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TurboSimdParityTest, ScalarAndSimdBitIdentical)
{
    const std::size_t k = GetParam();
    const auto info = random_bits(k, 1000 + k);
    const auto coded = turbo_encode(info);
    Rng rng(1100 + k);
    const auto llrs = to_llrs(coded, 0.9, rng);

    TurboDecoderConfig simd;
    simd.iterations = 4;
    TurboDecoderConfig scalar = simd;
    scalar.force_scalar = true;

    const auto [simd_bits, simd_res] = decode_block(llrs, k, simd);
    const auto [scalar_bits, scalar_res] =
        decode_block(llrs, k, scalar);
    // The SIMD recursions perform exact max-selection with the same
    // normalization as the scalar path, so the two decoders must agree
    // bit for bit, not just in BER.
    EXPECT_EQ(simd_bits, scalar_bits);
    EXPECT_EQ(simd_res.iterations_run, scalar_res.iterations_run);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TurboSimdParityTest,
                         ::testing::Values<std::size_t>(40, 64, 256,
                                                        1024, 6144),
                         [](const auto &info) {
                             return "k" + std::to_string(info.param);
                         });

TEST(TurboEarlyTermination, CrcStopMatchesFullIterationOutput)
{
    // A CRC-terminated decode that converges early must produce the
    // exact bits the full iteration budget would have produced.
    const std::size_t k = 1024;
    auto payload = random_bits(k - 24, 1300);
    const auto info = crc24_attach(std::move(payload), kCrc24APoly);
    ASSERT_EQ(info.size(), k);
    const auto coded = turbo_encode(info);
    Rng rng(1301);
    const auto llrs = to_llrs(coded, 0.7, rng);

    TurboDecoderConfig cfg;
    cfg.iterations = 8;
    const auto [full_bits, full_res] = decode_block(llrs, k, cfg, 0);
    const auto [early_bits, early_res] =
        decode_block(llrs, k, cfg, kCrc24APoly);

    EXPECT_TRUE(early_res.crc_ok);
    EXPECT_LT(early_res.iterations_run, 8u);
    EXPECT_EQ(early_bits, full_bits);
    EXPECT_EQ(early_bits, info);
}

TEST(TurboDecode, ZeroIterationsIsSystematicHardDecision)
{
    // The bypass rung of the degrade ladder: only the k systematic
    // LLRs are hard-decided, same framing as a real decode.
    const std::size_t k = 256;
    const auto info = random_bits(k, 1400);
    const auto coded = turbo_encode(info);
    Rng rng(1401);
    const auto llrs = to_llrs(coded, 0.5, rng);

    TurboDecoderConfig cfg;
    cfg.iterations = 0;
    const auto [bits, res] = decode_block(llrs, k, cfg, 0);
    EXPECT_EQ(res.iterations_run, 0u);
    for (std::size_t i = 0; i < k; ++i)
        EXPECT_EQ(bits[i], llrs[i] >= 0.0f ? 0 : 1);
}

TEST(TurboDecode, RealDecodeBeatsHardBypassAtFixedSnr)
{
    // At a noise level where the hard-decision bypass leaves a few
    // percent BER, the real decoder should be strictly better.
    const std::size_t k = 1024;
    std::size_t decode_errors = 0, bypass_errors = 0;
    for (int trial = 0; trial < 4; ++trial) {
        const auto info = random_bits(k, 1500 + trial);
        const auto coded = turbo_encode(info);
        Rng rng(1600 + trial);
        const auto llrs = to_llrs(coded, 1.0, rng);

        TurboDecoderConfig full;
        full.iterations = 6;
        TurboDecoderConfig bypass;
        bypass.iterations = 0;
        const auto [full_bits, r1] = decode_block(llrs, k, full);
        const auto [bypass_bits, r2] = decode_block(llrs, k, bypass);
        for (std::size_t i = 0; i < k; ++i) {
            decode_errors += full_bits[i] != info[i];
            bypass_errors += bypass_bits[i] != info[i];
        }
    }
    EXPECT_GT(bypass_errors, 4 * k / 100);
    EXPECT_LT(decode_errors, bypass_errors / 10);
}

} // namespace
} // namespace lte::phy
