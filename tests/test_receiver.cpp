/**
 * @file
 * Receiver-chain tests: channel estimator accuracy against ground
 * truth, combiner behaviour, and — the key integration property — the
 * full transmit -> channel -> receive round trip decoding the payload
 * with a green CRC across allocations, layers, and modulations.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "channel/mimo_channel.hpp"
#include "channel/signal_source.hpp"
#include "common/rng.hpp"
#include "matrix/fixed_cmat.hpp"
#include "phy/channel_estimator.hpp"
#include "phy/combiner.hpp"
#include "phy/crc.hpp"
#include "phy/interleaver.hpp"
#include "phy/modulation.hpp"
#include "phy/op_model.hpp"
#include "phy/turbo.hpp"
#include "phy/user_processor.hpp"
#include "phy/zadoff_chu.hpp"
#include "simd/simd.hpp"
#include "tx/transmitter.hpp"

namespace lte {
namespace {

using phy::UserParams;
using phy::ReceiverConfig;

// ------------------------------------------------- channel estimator

/** The frequency response and noise estimate of one
 *  estimate_channel_into() call on freshly sized buffers. */
float
estimate(const CVec &rx, const CVec &ref, CVec &freq)
{
    freq.assign(rx.size(), cf32(0.0f, 0.0f));
    CVec scratch(phy::estimate_channel_scratch(rx.size()));
    return phy::estimate_channel_into(rx, ref, freq, scratch);
}

TEST(ChannelEstimator, RecoversFlatChannelNoiselessly)
{
    const std::size_t m = 120;
    const CVec ref = phy::user_dmrs(1, 0, m, 0);
    const cf32 h(0.8f, -0.6f);
    CVec rx(m);
    for (std::size_t k = 0; k < m; ++k)
        rx[k] = h * ref[k];
    CVec est;
    const float noise_var = estimate(rx, ref, est);
    for (std::size_t k = 0; k < m; ++k)
        EXPECT_LT(std::abs(est[k] - h), 1e-3f);
    EXPECT_LT(noise_var, 1e-5f);
}

TEST(ChannelEstimator, RecoversMultipathChannel)
{
    const std::size_t m = 600;
    Rng rng(42);
    channel::ChannelConfig ccfg;
    ccfg.n_antennas = 1;
    channel::MimoChannel chan(ccfg, 1, rng);
    const CVec h = chan.frequency_response(0, 0, m);

    const CVec ref = phy::user_dmrs(3, 0, m, 0);
    CVec rx(m);
    for (std::size_t k = 0; k < m; ++k)
        rx[k] = h[k] * ref[k];
    CVec est;
    estimate(rx, ref, est);
    double err = 0.0, power = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
        err += std::norm(est[k] - h[k]);
        power += std::norm(h[k]);
    }
    EXPECT_LT(err / power, 1e-4);
}

TEST(ChannelEstimator, WindowSuppressesNoise)
{
    // With noise added, the windowed estimate must be closer to the
    // true channel than the raw matched-filter output.
    const std::size_t m = 300;
    Rng rng(77);
    const cf32 h(1.0f, 0.5f);
    const CVec ref = phy::user_dmrs(2, 1, m, 0);
    const float noise_std = 0.1f;
    CVec rx(m);
    for (std::size_t k = 0; k < m; ++k) {
        rx[k] = h * ref[k] +
                cf32(static_cast<float>(rng.next_gaussian()) * noise_std,
                     static_cast<float>(rng.next_gaussian()) * noise_std);
    }
    CVec est;
    estimate(rx, ref, est);
    double err_windowed = 0.0, err_raw = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
        err_windowed += std::norm(est[k] - h);
        err_raw += std::norm(rx[k] * std::conj(ref[k]) - h);
    }
    EXPECT_LT(err_windowed, err_raw / 4.0);
}

TEST(ChannelEstimator, NoiseVarianceEstimateIsCalibrated)
{
    const std::size_t m = 1200;
    Rng rng(99);
    const CVec ref = phy::user_dmrs(5, 0, m, 0);
    const float noise_var = 0.04f;
    const float noise_std = std::sqrt(noise_var / 2.0f);
    CVec rx(m);
    for (std::size_t k = 0; k < m; ++k) {
        rx[k] = ref[k] +
                cf32(static_cast<float>(rng.next_gaussian()) * noise_std,
                     static_cast<float>(rng.next_gaussian()) * noise_std);
    }
    CVec est;
    EXPECT_NEAR(estimate(rx, ref, est), noise_var, noise_var * 0.5f);
}

TEST(ChannelEstimator, SeparatesCyclicShiftedLayers)
{
    // Two layers transmit simultaneously; estimating with layer 0's
    // reference must recover layer 0's channel, not layer 2's.
    const std::size_t m = 480;
    const cf32 h0(1.0f, 0.0f), h2(0.0f, 1.0f);
    const CVec r0 = phy::user_dmrs(4, 0, m, 0);
    const CVec r2 = phy::user_dmrs(4, 0, m, 2);
    CVec rx(m);
    for (std::size_t k = 0; k < m; ++k)
        rx[k] = h0 * r0[k] + h2 * r2[k];
    CVec est;
    estimate(rx, r0, est);
    double err = 0.0;
    for (std::size_t k = 0; k < m; ++k)
        err += std::norm(est[k] - h0);
    EXPECT_LT(err / static_cast<double>(m), 1e-3);
}

TEST(ChannelEstimator, RejectsMismatchedLengths)
{
    CVec freq(10), scratch(phy::estimate_channel_scratch(12));
    EXPECT_THROW(phy::estimate_channel_into(CVec(10), CVec(12), freq,
                                            scratch),
                 std::invalid_argument);
    EXPECT_THROW(phy::estimate_channel_into(CfView(), CfView(), CfSpan(),
                                            scratch),
                 std::invalid_argument);
}

TEST(ChannelEstimator, WindowExtentRespectsBounds)
{
    for (std::size_t n : {12u, 120u, 1200u}) {
        const auto [front, back] = phy::window_extent(n, phy::kWindowFraction);
        EXPECT_GE(front + back, 1u);
        EXPECT_LE(front + back, n);
        EXPECT_LT(front, n / 4 + 1); // stays inside the layer bin
    }
}

// ----------------------------------------------------------- combiner

/** MMSE weights for a flat antenna-major channel buffer. */
phy::CombinerWeights
weights(const CVec &channel, std::size_t antennas, std::size_t layers,
        float noise_var)
{
    const std::size_t n_sc = channel.size() / (antennas * layers);
    phy::CombinerWeights w;
    phy::compute_combiner_weights_into({channel.data(), antennas, layers,
                                        n_sc},
                                       noise_var, w);
    return w;
}

/** One layer combined from one received vector per antenna. */
CVec
combine(const std::vector<CVec> &rx, const phy::CombinerWeights &w,
        std::size_t layer)
{
    const std::vector<CfView> views(rx.begin(), rx.end());
    CVec z(w.n_subcarriers());
    phy::combine_layer_into(views, w, layer, z);
    return z;
}

TEST(Combiner, SingleAntennaSingleLayerIsChannelInversion)
{
    const std::size_t m = 24;
    const cf32 h(2.0f, 1.0f);
    const auto w = weights(CVec(m, h), 1, 1, 1e-4f);
    // w ~= h* / (|h|^2 + sigma^2): combining y = h*x returns ~x.
    const CVec z = combine({CVec(m, h * cf32(3.0f, -1.0f))}, w, 0);
    for (const auto &v : z)
        EXPECT_LT(std::abs(v - cf32(3.0f, -1.0f)), 1e-2f);
}

TEST(Combiner, RecoversTwoLayersThroughKnownMatrix)
{
    // y = H x with a well-conditioned 2x2 H; MMSE with tiny noise
    // must separate the layers.
    const std::size_t m = 36;
    const cf32 h00(1.0f, 0.2f), h01(0.3f, -0.4f);
    const cf32 h10(-0.2f, 0.5f), h11(0.9f, -0.1f);
    CVec channel;
    for (const cf32 h : {h00, h01, h10, h11})
        channel.insert(channel.end(), m, h);
    const auto w = weights(channel, 2, 2, 1e-5f);

    const cf32 x0(1.0f, 1.0f), x1(-0.5f, 2.0f);
    std::vector<CVec> rx(2, CVec(m));
    for (std::size_t k = 0; k < m; ++k) {
        rx[0][k] = h00 * x0 + h01 * x1;
        rx[1][k] = h10 * x0 + h11 * x1;
    }
    const CVec z0 = combine(rx, w, 0);
    const CVec z1 = combine(rx, w, 1);
    for (std::size_t k = 0; k < m; ++k) {
        EXPECT_LT(std::abs(z0[k] - x0), 5e-2f);
        EXPECT_LT(std::abs(z1[k] - x1), 5e-2f);
    }
}

TEST(Combiner, MoreAntennasImproveNoiseRejection)
{
    // MRC property: with A antennas the post-combining SNR grows ~A.
    Rng rng(11);
    const std::size_t m = 2400;
    const float noise_var = 0.1f;
    double err1 = 0.0, err4 = 0.0;
    for (std::size_t antennas : {1u, 4u}) {
        const auto w = weights(CVec(antennas * m, cf32(1.0f, 0.0f)),
                               antennas, 1, noise_var);
        std::vector<CVec> rx(antennas, CVec(m));
        const float noise_std = std::sqrt(noise_var / 2.0f);
        for (std::size_t a = 0; a < antennas; ++a) {
            for (std::size_t k = 0; k < m; ++k) {
                rx[a][k] =
                    cf32(1.0f, 0.0f) +
                    cf32(static_cast<float>(rng.next_gaussian()) *
                             noise_std,
                         static_cast<float>(rng.next_gaussian()) *
                             noise_std);
            }
        }
        const CVec z = combine(rx, w, 0);
        double err = 0.0;
        // MMSE output is biased; compare against the biased target.
        const float bias = static_cast<float>(antennas) /
                           (static_cast<float>(antennas) + noise_var);
        for (const auto &v : z)
            err += std::norm(v - cf32(bias, 0.0f));
        if (antennas == 1)
            err1 = err;
        else
            err4 = err;
    }
    EXPECT_LT(err4, err1 / 2.0);
}

TEST(Combiner, RejectsEmptyChannelView)
{
    const CVec ch(8, cf32(1.0f, 0.0f));
    phy::CombinerWeights w;
    for (const phy::ChannelView bad :
         {phy::ChannelView{nullptr, 1, 1, 8},
          phy::ChannelView{ch.data(), 0, 1, 8},
          phy::ChannelView{ch.data(), 1, 0, 8}}) {
        EXPECT_THROW(phy::compute_combiner_weights_into(bad, 0.1f, w),
                     std::invalid_argument);
    }
}

TEST(Combiner, RejectsDimensionsAboveFixedCMatCapacity)
{
    constexpr std::size_t kOver = matrix::FixedCMat::kMaxDim + 1;
    const CVec ch(kOver * 8, cf32(1.0f, 0.0f));
    phy::CombinerWeights w;
    for (const phy::ChannelView bad :
         {phy::ChannelView{ch.data(), kOver, 1, 8},
          phy::ChannelView{ch.data(), 1, kOver, 8}}) {
        EXPECT_THROW(phy::compute_combiner_weights_into(bad, 0.1f, w),
                     std::invalid_argument);
    }
}

TEST(Combiner, RejectsNonPositiveNoiseVariance)
{
    const CVec ch(8, cf32(1.0f, 0.0f));
    const phy::ChannelView view{ch.data(), 1, 1, 8};
    phy::CombinerWeights w;
    for (const float bad : {0.0f, -0.1f,
                            std::numeric_limits<float>::quiet_NaN()}) {
        EXPECT_THROW(phy::compute_combiner_weights_into(view, bad, w),
                     std::invalid_argument);
    }
}

// ---------------------------------------------- end-to-end round trip

struct E2eCase
{
    std::uint32_t prb;
    std::uint32_t layers;
    Modulation mod;
    /** Rank-4 MMSE suffers noise enhancement on ill-conditioned
     *  subcarriers, so fully loaded cases need more SNR. */
    double snr_db;
};

class EndToEndTest : public ::testing::TestWithParam<E2eCase>
{
};

TEST_P(EndToEndTest, DecodesPayloadWithGreenCrc)
{
    const E2eCase c = GetParam();
    UserParams params;
    params.id = 7;
    params.prb = c.prb;
    params.layers = c.layers;
    params.mod = c.mod;

    Rng rng(1234 + c.prb + c.layers * 1000);
    const auto realistic =
        channel::realistic_user_signal(params, 4, c.snr_db, rng);

    ReceiverConfig rcfg;
    phy::UserProcessor proc(params, rcfg, &realistic.signal);
    const auto result = proc.process_all();

    EXPECT_TRUE(result.crc_ok)
        << "prb=" << c.prb << " layers=" << c.layers
        << " mod=" << modulation_name(c.mod)
        << " evm=" << result.evm_rms;
    EXPECT_EQ(result.bits, realistic.expected_bits);
    EXPECT_LT(result.evm_rms, 0.3f);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EndToEndTest,
    ::testing::Values(
        E2eCase{2, 1, Modulation::kQpsk, 30.0},
        E2eCase{3, 1, Modulation::kQpsk, 30.0},     // odd PRB split
        E2eCase{10, 1, Modulation::k16Qam, 30.0},
        E2eCase{20, 2, Modulation::kQpsk, 30.0},
        E2eCase{24, 2, Modulation::k64Qam, 30.0},
        E2eCase{50, 4, Modulation::k16Qam, 40.0},
        E2eCase{100, 4, Modulation::k64Qam, 45.0},
        E2eCase{199, 2, Modulation::k16Qam, 30.0},  // Bluestein sizes
        E2eCase{200, 4, Modulation::k64Qam, 45.0}), // max allocation
    [](const auto &info) {
        return "prb" + std::to_string(info.param.prb) + "_l" +
               std::to_string(info.param.layers) + "_" +
               modulation_name(info.param.mod);
    });

TEST(EndToEnd, FailsCrcOnRandomNoiseInput)
{
    // The paper's random-IQ mode: the chain must run and the CRC must
    // (overwhelmingly) fail.
    UserParams params;
    params.id = 1;
    params.prb = 12;
    params.layers = 2;
    params.mod = Modulation::k16Qam;
    Rng rng(5);
    const auto signal = channel::random_user_signal(params, 4, rng);
    phy::UserProcessor proc(params, ReceiverConfig{}, &signal);
    const auto result = proc.process_all();
    EXPECT_FALSE(result.crc_ok);
    EXPECT_FALSE(result.bits.empty());
}

TEST(EndToEnd, RealTurboModeRoundTrips)
{
    UserParams params;
    params.id = 3;
    params.prb = 8;
    params.layers = 1;
    params.mod = Modulation::kQpsk;
    Rng rng(321);
    const auto realistic =
        channel::realistic_user_signal(params, 4, 10.0, rng,
                                       /*real_turbo=*/true);
    ReceiverConfig rcfg;
    rcfg.use_real_turbo = true;
    phy::UserProcessor proc(params, rcfg, &realistic.signal);
    const auto result = proc.process_all();
    EXPECT_TRUE(result.crc_ok);
    EXPECT_EQ(result.bits, realistic.expected_bits);
}

TEST(EndToEnd, RealTurboMultiBlockRoundTrips)
{
    // An allocation wide enough to segment into several LTE code
    // blocks (per-block CRC-24B under the transport-block CRC-24A).
    UserParams params;
    params.id = 4;
    params.prb = 60;
    params.layers = 1;
    params.mod = Modulation::k64Qam;
    const auto seg = phy::turbo_segment(capacity_bits(params));
    ASSERT_GE(seg.n_blocks, 2u);

    Rng rng(654);
    const auto realistic =
        channel::realistic_user_signal(params, 4, 25.0, rng,
                                       /*real_turbo=*/true);
    ReceiverConfig rcfg;
    rcfg.use_real_turbo = true;
    phy::UserProcessor proc(params, rcfg, &realistic.signal);
    const auto result = proc.process_all();
    EXPECT_TRUE(result.crc_ok);
    EXPECT_EQ(result.bits, realistic.expected_bits);
    EXPECT_EQ(result.bits.size(), seg.tb_bits());
    // CRC early termination: a clean decode should not burn the full
    // budget on every block.
    EXPECT_LT(result.decode_iterations,
              phy::turbo_iterations_for(phy::DegradeLevel::kNone) *
                  seg.n_blocks);
    EXPECT_GT(result.decode_iterations, 0u);
}

TEST(EndToEnd, RealTurboFramingIsStableAcrossDegradeLevels)
{
    // Regression: the degraded real-turbo tail used to hard-decide the
    // whole coded LLR range, so result.bits silently changed length
    // and meaning when an admission controller flipped a subframe to
    // the degraded chain.  The frame must stay tb_bits() at every
    // rung of the ladder.
    UserParams params;
    params.id = 5;
    params.prb = 40;
    params.layers = 1;
    params.mod = Modulation::k64Qam;
    const auto seg = phy::turbo_segment(capacity_bits(params));

    Rng rng(987);
    const auto realistic =
        channel::realistic_user_signal(params, 4, 25.0, rng,
                                       /*real_turbo=*/true);
    ReceiverConfig rcfg;
    rcfg.use_real_turbo = true;

    const phy::DegradeLevel levels[] = {phy::DegradeLevel::kNone,
                                   phy::DegradeLevel::kReducedIterations,
                                   phy::DegradeLevel::kBypass};
    for (const phy::DegradeLevel level : levels) {
        phy::UserProcessor proc(params, rcfg, &realistic.signal);
        proc.set_degrade(level);
        const auto result = proc.process_all();
        EXPECT_EQ(result.bits.size(), seg.tb_bits())
            << "level=" << static_cast<int>(level);
        // The CRC flag is always the CRC-24A verdict over the frame,
        // whichever rung produced it.
        EXPECT_EQ(result.crc_ok, phy::crc24_check(result.bits))
            << "level=" << static_cast<int>(level);
    }

    // Bypass runs zero decode iterations; the full chain runs some.
    phy::UserProcessor full(params, rcfg, &realistic.signal);
    const auto full_result = full.process_all();
    EXPECT_GT(full_result.decode_iterations, 0u);
    phy::UserProcessor bypass(params, rcfg, &realistic.signal);
    bypass.set_degrade(phy::DegradeLevel::kBypass);
    EXPECT_EQ(bypass.process_all().decode_iterations, 0u);
}

TEST(EndToEnd, TaskwiseExecutionMatchesProcessAll)
{
    // Running the stages task-by-task (as the parallel runtime does)
    // must give bit-identical results to process_all().
    UserParams params;
    params.id = 9;
    params.prb = 30;
    params.layers = 3;
    params.mod = Modulation::k16Qam;
    Rng rng(777);
    const auto realistic =
        channel::realistic_user_signal(params, 4, 25.0, rng);

    ReceiverConfig rcfg;
    phy::UserProcessor serial(params, rcfg, &realistic.signal);
    const auto ref = serial.process_all();

    phy::UserProcessor taskwise(params, rcfg, &realistic.signal);
    // Deliberately scrambled task order.
    for (std::size_t t = taskwise.n_chanest_tasks(); t-- > 0;)
        taskwise.run_chanest_task(t);
    taskwise.compute_weights();
    for (std::size_t t = taskwise.n_demod_tasks(); t-- > 0;)
        taskwise.run_demod_task(t);
    const auto result = taskwise.finish();

    EXPECT_EQ(result.bits, ref.bits);
    EXPECT_EQ(result.checksum, ref.checksum);
    EXPECT_EQ(result.crc_ok, ref.crc_ok);
}

/**
 * evm_rms must be exactly what per-symbol nearest_point_distance2
 * calls give: each tail codeblock threads one double through its
 * symbols in canonical order (slot, layer, data symbol, deinterleaved
 * sample), and the reduce folds the codeblock partials in order.  The
 * reference re-derives the greedy codeblock packing from
 * kTailCodeblockBits.  A NaN sample in one data symbol spreads over
 * its whole block through the despreading IFFT.
 */
TEST(EndToEnd, EvmMatchesPerSymbolReferenceBitForBit)
{
    const ReceiverConfig cfg;
    for (Modulation mod :
         {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
        for (std::uint32_t layers = 1; layers <= 4; ++layers) {
            for (bool with_nan : {false, true}) {
                UserParams params;
                params.id = 5;
                params.prb = 50;
                params.layers = layers;
                params.mod = mod;
                Rng rng(100 + layers);
                auto signal = channel::random_user_signal(
                    params, cfg.n_antennas, rng);
                if (with_nan) {
                    signal.antennas[1].slots[1][5][7] =
                        cf32(std::numeric_limits<float>::quiet_NaN(),
                             0.0f);
                }
                phy::UserProcessor proc(cfg);
                proc.bind(params, &signal);
                const float evm = proc.process_all().evm_rms;

                const std::size_t bps = bits_per_symbol(mod);
                double total = 0.0;
                double part = 0.0;
                std::size_t part_bits = 0;
                std::size_t n = 0;
                for (std::size_t slot = 0; slot < kSlotsPerSubframe;
                     ++slot) {
                    const std::size_t m = params.sc_in_slot(slot);
                    for (std::size_t l = 0; l < layers; ++l) {
                        for (std::size_t ds = 0; ds < kDataSymbolsPerSlot;
                             ++ds) {
                            if (part_bits > 0 &&
                                part_bits + m * bps >
                                    phy::kTailCodeblockBits) {
                                total += part;
                                part = 0.0;
                                part_bits = 0;
                            }
                            const CfView eq = proc.equalised(slot, l, ds);
                            CVec deint(eq.size());
                            phy::deinterleave_into(
                                eq,
                                phy::interleave_permutation(
                                    eq.size(), phy::kInterleaverColumns),
                                deint);
                            for (const cf32 &y : deint)
                                part += phy::nearest_point_distance2(y, mod);
                            part_bits += m * bps;
                            n += m;
                        }
                    }
                }
                total += part;
                const float ref = std::sqrt(static_cast<float>(
                    total / static_cast<double>(n)));
                EXPECT_EQ(std::bit_cast<std::uint32_t>(evm),
                          std::bit_cast<std::uint32_t>(ref))
                    << "mod " << static_cast<int>(mod) << " layers "
                    << layers << (with_nan ? " with NaN" : "") << ": "
                    << evm << " vs " << ref;
            }
        }
    }
}

#if !defined(__FMA__)
// Contracted multiply-adds (native builds) round differently, so the
// pinned digest holds only for the default portable builds.
TEST(EndToEnd, OddPrbRealDecodeDigestPinned)
{
    // An odd PRB count in a slot gives 12 * PRB = 4 (mod 8)
    // subcarriers, so the 8-lane AVX2 kernels finish every such row in
    // their scalar remainder, while 4-lane SSE2 never reaches it.  The
    // remainders must round like the lanes: this digest of a real
    // decode chain is the same for SSE2 and AVX2 builds (another for
    // LTE_SIMD=OFF).  The SNR leaves some codeblocks failing CRC, so
    // the decoder spends its whole budget and the decoded bits follow
    // every LLR.
    struct Case
    {
        std::uint32_t prb;
        std::uint32_t layers;
        Modulation mod;
    };
    const Case cases[] = {{2, 1, Modulation::kQpsk},
                          {7, 2, Modulation::k16Qam},
                          {25, 1, Modulation::k64Qam},
                          {26, 3, Modulation::kQpsk},
                          {50, 2, Modulation::k64Qam},
                          {99, 4, Modulation::k16Qam}};
    ReceiverConfig rcfg;
    rcfg.use_real_turbo = true;
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    std::size_t crc_fail = 0, crc_pass = 0;
    for (const Case &c : cases) {
        UserParams params;
        params.id = c.prb;
        params.prb = c.prb;
        params.layers = c.layers;
        params.mod = c.mod;
        Rng rng(4242 + c.prb);
        const auto realistic = channel::realistic_user_signal(
            params, 4, 4.0, rng, /*real_turbo=*/true);
        phy::UserProcessor proc(params, rcfg, &realistic.signal);
        const auto result = proc.process_all();
        for (const std::uint8_t bit : result.bits)
            mix(bit);
        mix(result.checksum);
        mix(result.crc_ok);
        mix(std::bit_cast<std::uint32_t>(result.evm_rms));
        mix(result.decode_iterations);
        (result.crc_ok ? crc_pass : crc_fail) += 1;
    }
    EXPECT_GT(crc_fail, 0u);
    EXPECT_GT(crc_pass, 0u);
    const std::uint64_t expected =
        simd::enabled() ? 0xaa1f71366e19d4b5ull : 0x689d86825319cf68ull;
    EXPECT_EQ(h, expected) << std::hex << "digest 0x" << h;
}
#endif

TEST(EndToEnd, ChecksumDetectsBitDifferences)
{
    EXPECT_NE(phy::bit_checksum({0, 1, 0}), phy::bit_checksum({0, 1, 1}));
    EXPECT_EQ(phy::bit_checksum({1, 0, 1}), phy::bit_checksum({1, 0, 1}));
}

} // namespace
} // namespace lte
