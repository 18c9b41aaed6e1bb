/**
 * @file
 * Tests for the scrambler (Gold sequence) and the SC-FDMA front-end:
 * sequence properties, involution, soft descrambling, CP/FFT
 * round-trips, carrier mapping, and the key radio property that a
 * time-domain delay inside the CP becomes a pure per-subcarrier phase
 * rotation.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "phy/scfdma.hpp"
#include "phy/scrambler.hpp"
#include "phy/user_processor.hpp"
#include "phy/zadoff_chu.hpp"
#include "tx/transmitter.hpp"

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

// ----------------------------------------------------------- Gold

TEST(Gold, BalancedAndAperiodicLooking)
{
    const auto c = gold_sequence(12345, 20000);
    RunningStats ones;
    for (std::uint8_t b : c)
        ones.add(b);
    EXPECT_NEAR(ones.mean(), 0.5, 0.02);
    // Runs test (coarse): adjacent equal pairs about half.
    std::size_t same = 0;
    for (std::size_t i = 1; i < c.size(); ++i)
        same += c[i] == c[i - 1];
    EXPECT_NEAR(static_cast<double>(same) /
                    static_cast<double>(c.size() - 1),
                0.5, 0.02);
}

TEST(Gold, DifferentInitsDiffer)
{
    const auto a = gold_sequence(1, 1000);
    const auto b = gold_sequence(2, 1000);
    std::size_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diff += a[i] != b[i];
    EXPECT_GT(diff, 300u);
}

TEST(Gold, DeterministicPrefix)
{
    const auto a = gold_sequence(777, 100);
    const auto b = gold_sequence(777, 1000);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

/**
 * Bit-serial reference for c(n): the TS 36.211 Sec. 7.2 recurrences
 * one bit at a time, Nc = 1600 steps past initialisation — the form
 * the word-parallel GoldStream must reproduce.
 */
std::vector<std::uint8_t>
serial_gold(std::uint32_t c_init, std::size_t length)
{
    constexpr std::size_t kNc = 1600;
    std::uint32_t x1 = 1u;
    std::uint32_t x2 = c_init & 0x7FFFFFFFu;
    std::vector<std::uint8_t> c(length);
    for (std::size_t n = 0; n < kNc + length; ++n) {
        if (n >= kNc)
            c[n - kNc] = static_cast<std::uint8_t>((x1 ^ x2) & 1u);
        const std::uint32_t n1 = ((x1 >> 3) ^ x1) & 1u;
        const std::uint32_t n2 = ((x2 >> 3) ^ (x2 >> 2) ^ (x2 >> 1) ^ x2) & 1u;
        x1 = (x1 >> 1) | (n1 << 30);
        x2 = (x2 >> 1) | (n2 << 30);
    }
    return c;
}

TEST(Gold, BlockGeneratorMatchesBitSerialReference)
{
    for (std::uint32_t init : {0u, 1u, scrambling_init(7), 0x7FFFFFFFu}) {
        const auto ref = serial_gold(init, 300);
        for (std::size_t len = 0; len <= 130; ++len) {
            const auto c = gold_sequence(init, len);
            ASSERT_EQ(c, std::vector<std::uint8_t>(
                             ref.begin(), ref.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  len)))
                << "init " << init << " length " << len;
        }
    }
}

TEST(Scrambler, ScrambleXorsTheBitSerialSequence)
{
    const std::uint32_t init = scrambling_init(11);
    for (std::size_t len : {0u, 1u, 27u, 28u, 29u, 56u, 57u, 1000u}) {
        const auto bits = random_bits(len, len + 1);
        const auto ref = serial_gold(init, len);
        const auto out = scramble(bits, init);
        ASSERT_EQ(out.size(), len);
        for (std::size_t i = 0; i < len; ++i)
            ASSERT_EQ(out[i], bits[i] ^ ref[i]) << "len " << len << " i " << i;
    }
}

TEST(Scrambler, ScrambleRejectsNonBinaryInput)
{
    auto bits = random_bits(100, 5);
    bits[77] = 2;
    EXPECT_THROW(scramble(bits, scrambling_init(1)), std::invalid_argument);
}

/**
 * Soft descrambling of every slice [offset, offset + length) for
 * offsets and lengths 0..130 (the short-skip branch and the block
 * boundaries) and for offsets around 2^20 (the jump-matrix branch)
 * must equal `v = -v` under the bit-serial sequence, bit for bit —
 * ±0, ±inf and NaN payloads included.
 */
TEST(Scrambler, SoftDescrambleMatchesBitSerialReferenceBitForBit)
{
    const std::uint32_t init = scrambling_init(3, 2);
    constexpr std::size_t kMaxLen = 130;
    constexpr std::size_t kFar = std::size_t{1} << 20;
    const auto seq = serial_gold(init, kFar + 8 + kMaxLen);

    // LLR pool: the special values, then signed random magnitudes.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    std::vector<Llr> pool = {0.0f, -0.0f, kInf, -kInf, kNan, -kNan,
                             std::numeric_limits<float>::denorm_min(),
                             -std::numeric_limits<float>::max()};
    Rng rng(21);
    while (pool.size() < kMaxLen)
        pool.push_back(static_cast<float>(rng.next_gaussian() * 8.0));

    std::vector<std::size_t> offsets;
    for (std::size_t off = 0; off <= kMaxLen; ++off)
        offsets.push_back(off);
    for (std::size_t off = kFar - 8; off <= kFar + 8; ++off)
        offsets.push_back(off);

    for (std::size_t off : offsets) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            // Rotate the pool so every special value visits every
            // position within a block.
            std::vector<Llr> llrs(len), expect(len);
            for (std::size_t i = 0; i < len; ++i) {
                llrs[i] = pool[(i + off) % pool.size()];
                expect[i] = seq[off + i] ? -llrs[i] : llrs[i];
            }
            descramble_soft_inplace(llrs, init, off);
            ASSERT_TRUE(len == 0 ||
                        std::memcmp(llrs.data(), expect.data(),
                                    len * sizeof(Llr)) == 0)
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Scrambler, ScrambleIsAnInvolution)
{
    const auto bits = random_bits(500, 3);
    const auto once = scramble(bits, scrambling_init(7));
    EXPECT_NE(once, bits);
    EXPECT_EQ(scramble(once, scrambling_init(7)), bits);
}

TEST(Scrambler, SoftDescramblingMatchesHardDescrambling)
{
    const auto bits = random_bits(256, 9);
    const std::uint32_t init = scrambling_init(3);
    const auto scrambled = scramble(bits, init);
    // Perfect-channel LLRs of the scrambled bits.
    std::vector<Llr> llrs(scrambled.size());
    for (std::size_t i = 0; i < scrambled.size(); ++i)
        llrs[i] = scrambled[i] ? -4.0f : 4.0f;
    descramble_soft_inplace(llrs, init);
    for (std::size_t i = 0; i < bits.size(); ++i)
        EXPECT_EQ(llrs[i] >= 0.0f ? 0 : 1, bits[i]);
}

TEST(Scrambler, DifferentUsersGetDifferentSequences)
{
    EXPECT_NE(scrambling_init(1), scrambling_init(2));
    const auto bits = random_bits(200, 4);
    EXPECT_NE(scramble(bits, scrambling_init(1)),
              scramble(bits, scrambling_init(2)));
}

TEST(Scrambler, DifferentCellsGetDecorrelatedSequences)
{
    // The default cell is cell 1, so single-cell call sites keep
    // their pre-multi-cell sequences bit-for-bit.
    EXPECT_EQ(scrambling_init(5), scrambling_init(5, 1));
    EXPECT_NE(scrambling_init(5, 1), scrambling_init(5, 2));

    // Same user, two cells: the scrambling sequences differ in
    // roughly half their positions (Gold decorrelation).
    const auto zeros = std::vector<std::uint8_t>(2000, 0);
    const auto c1 = scramble(zeros, scrambling_init(5, 1));
    const auto c2 = scramble(zeros, scrambling_init(5, 2));
    std::size_t diff = 0;
    for (std::size_t i = 0; i < zeros.size(); ++i)
        diff += c1[i] != c2[i];
    EXPECT_GT(diff, 800u);
    EXPECT_LT(diff, 1200u);
}

TEST(ZadoffChu, DifferentCellsGetDecorrelatedDmrs)
{
    const std::size_t m_sc = 120;
    // Cell 1 is the identity: same sequence as the pre-multi-cell
    // default-argument call.
    const auto base = user_dmrs(3, 0, m_sc, 0);
    const auto cell1 = user_dmrs(3, 0, m_sc, 0, 1);
    ASSERT_EQ(base.size(), cell1.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i].real(), cell1[i].real());
        EXPECT_EQ(base[i].imag(), cell1[i].imag());
    }

    // Cell 2 uses a different ZC root: low normalized
    // cross-correlation against cell 1 (inter-cell pilot
    // contamination stays bounded).
    const auto cell2 = user_dmrs(3, 0, m_sc, 0, 2);
    cf32 acc{0.0f, 0.0f};
    for (std::size_t i = 0; i < m_sc; ++i)
        acc += cell1[i] * std::conj(cell2[i]);
    const double xcorr =
        std::abs(acc) / static_cast<double>(m_sc);
    EXPECT_LT(xcorr, 0.5);
    // Sanity: self-correlation is 1 (constant-modulus sequence).
    cf32 self{0.0f, 0.0f};
    for (std::size_t i = 0; i < m_sc; ++i)
        self += cell1[i] * std::conj(cell1[i]);
    EXPECT_NEAR(std::abs(self) / static_cast<double>(m_sc), 1.0,
                1e-5);
}

// --------------------------------------------------------- SC-FDMA

ScFdmaConfig
small_cfg()
{
    ScFdmaConfig cfg;
    cfg.n_fft = 512;
    cfg.n_used = 300;
    return cfg;
}

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

TEST(ScFdma, CpLengthsFollowTheSpecScaling)
{
    ScFdmaConfig cfg; // 2048-point carrier
    EXPECT_EQ(cfg.cp_length(0), 160u);
    EXPECT_EQ(cfg.cp_length(1), 144u);
    EXPECT_EQ(cfg.cp_length(6), 144u);
    const ScFdmaConfig half = small_cfg(); // 512-point carrier
    EXPECT_EQ(half.cp_length(0), 40u);
    EXPECT_EQ(half.cp_length(3), 36u);
    // One slot = 0.5 ms at 2048 x 15 kHz = 15360 samples.
    EXPECT_EQ(ScFdmaConfig{}.samples_per_slot(), 15360u);
}

TEST(ScFdma, CarrierMappingRoundTrips)
{
    const auto cfg = small_cfg();
    const CVec alloc = random_symbols(144, 5);
    const CVec carrier = map_to_carrier(alloc, 60, cfg);
    CVec back(144);
    extract_from_carrier_into(carrier, 60, cfg, back);
    for (std::size_t i = 0; i < alloc.size(); ++i)
        EXPECT_EQ(back[i], alloc[i]);
    // Everything else stays zero, including DC.
    double other = 0.0;
    for (const auto &v : carrier)
        other += std::norm(v);
    double used = 0.0;
    for (const auto &v : alloc)
        used += std::norm(v);
    EXPECT_NEAR(other, used, 1e-6 * used);
    EXPECT_EQ(carrier[0], cf32(0.0f, 0.0f));
}

TEST(ScFdma, MappingRejectsOutOfBand)
{
    const auto cfg = small_cfg();
    EXPECT_THROW(map_to_carrier(CVec(200), 150, cfg),
                 std::invalid_argument);
}

TEST(ScFdma, ModulateDemodulateRoundTrips)
{
    const auto cfg = small_cfg();
    for (std::size_t sym : {0u, 1u, 6u}) {
        const CVec carrier =
            map_to_carrier(random_symbols(288, 10 + sym), 6, cfg);
        const CVec time = scfdma_modulate(carrier, sym, cfg);
        EXPECT_EQ(time.size(), cfg.n_fft + cfg.cp_length(sym));
        CVec back(cfg.n_fft);
        scfdma_demodulate_into(time, sym, cfg, back);
        double err = 0.0, power = 0.0;
        for (std::size_t k = 0; k < cfg.n_fft; ++k) {
            err += std::norm(back[k] - carrier[k]);
            power += std::norm(carrier[k]);
        }
        EXPECT_LT(err, 1e-8 * power) << "sym=" << sym;
    }
}

TEST(ScFdma, CyclicPrefixIsACopyOfTheTail)
{
    const auto cfg = small_cfg();
    const CVec carrier = map_to_carrier(random_symbols(144, 21), 0, cfg);
    const CVec time = scfdma_modulate(carrier, 2, cfg);
    const std::size_t cp = cfg.cp_length(2);
    for (std::size_t i = 0; i < cp; ++i)
        EXPECT_EQ(time[i], time[cfg.n_fft + i]);
}

TEST(ScFdma, DelayWithinCpBecomesPhaseRamp)
{
    // The whole point of the cyclic prefix: a channel delay shorter
    // than the CP turns into exp(-j*2*pi*k*d/N) per carrier bin.
    const auto cfg = small_cfg();
    const std::size_t delay = 11; // < CP (36)
    const CVec alloc = random_symbols(96, 33);
    const CVec carrier = map_to_carrier(alloc, 30, cfg);
    const CVec time = scfdma_modulate(carrier, 1, cfg);

    // Delayed reception: drop the last `delay` samples and prepend
    // zeros (the lost energy belongs to the next symbol's window).
    CVec delayed(time.size(), cf32(0.0f, 0.0f));
    for (std::size_t i = delay; i < time.size(); ++i)
        delayed[i] = time[i - delay];

    CVec rx(cfg.n_fft), got(96);
    scfdma_demodulate_into(delayed, 1, cfg, rx);
    extract_from_carrier_into(rx, 30, cfg, got);

    // Compare against the analytical phase ramp on each bin.
    for (std::size_t k = 0; k < alloc.size(); ++k) {
        // Bin index of used-band position 30 + k.
        const std::size_t half = cfg.n_used / 2;
        const std::size_t u = 30 + k;
        const std::size_t bin = u >= half ? u - half + 1
                                          : cfg.n_fft - half + u;
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(bin * delay %
                                                 cfg.n_fft) /
                             static_cast<double>(cfg.n_fft);
        const cf32 expected =
            alloc[k] * cf32(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
        EXPECT_LT(std::abs(got[k] - expected), 2e-3f) << "k=" << k;
    }
}

TEST(ScFdma, FullAirLinkRoundTripsThroughTimeDomain)
{
    // Integration: transmit chain -> carrier mapping -> SC-FDMA
    // modulation -> time-domain two-tap channel inside the CP ->
    // front-end demodulation -> the regular receiver, CRC green.
    phy::UserParams user;
    user.id = 6;
    user.prb = 8;
    user.layers = 1;
    user.mod = Modulation::kQpsk;

    ScFdmaConfig cfg;
    cfg.n_fft = 512;
    cfg.n_used = 300;
    const std::size_t start_sc = 48;

    Rng rng(505);
    const auto txr = lte::tx::transmit_user(user, rng);

    phy::UserSignal rx;
    rx.antennas.resize(1);
    const cf32 g0(0.8f, 0.3f), g1(0.2f, -0.25f);
    const std::size_t d1 = 9; // within the 36-sample CP
    const float noise_std = 0.002f;

    CVec back(cfg.n_fft);
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const std::size_t m_sc = user.sc_in_slot(slot);
        for (std::size_t sym = 0; sym < kSymbolsPerSlot; ++sym) {
            const CVec carrier = map_to_carrier(
                txr.grid.layers[0].slots[slot][sym], start_sc, cfg);
            const CVec time = scfdma_modulate(carrier, sym, cfg);
            CVec faded(time.size(), cf32(0.0f, 0.0f));
            for (std::size_t i = 0; i < time.size(); ++i) {
                faded[i] += g0 * time[i];
                if (i >= d1)
                    faded[i] += g1 * time[i - d1];
            }
            for (auto &v : faded) {
                v += cf32(static_cast<float>(rng.next_gaussian()) *
                              noise_std,
                          static_cast<float>(rng.next_gaussian()) *
                              noise_std);
            }
            scfdma_demodulate_into(faded, sym, cfg, back);
            CVec &alloc = rx.antennas[0].slots[slot][sym];
            alloc.resize(m_sc);
            extract_from_carrier_into(back, start_sc, cfg, alloc);
        }
    }

    phy::ReceiverConfig rcfg;
    rcfg.n_antennas = 1;
    phy::UserProcessor proc(user, rcfg, &rx);
    const auto result = proc.process_all();
    EXPECT_TRUE(result.crc_ok) << "evm=" << result.evm_rms;
    EXPECT_EQ(result.bits, txr.payload_bits);
}

TEST(ScFdma, RejectsBadConfig)
{
    ScFdmaConfig cfg;
    cfg.n_fft = 100; // not a power of two
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = ScFdmaConfig{};
    cfg.n_used = 4096;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

} // namespace
} // namespace lte::phy
