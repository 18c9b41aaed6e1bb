/**
 * @file
 * Direct tests of the MIMO channel model: power normalisation, the
 * consistency between the analytical frequency response and apply(),
 * SNR calibration of the injected noise, and configuration limits.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "channel/mimo_channel.hpp"
#include "channel/signal_source.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "tx/transmitter.hpp"

namespace lte::channel {
namespace {

phy::UserParams
user(std::uint32_t prb, std::uint32_t layers)
{
    phy::UserParams u;
    u.id = 1;
    u.prb = prb;
    u.layers = layers;
    u.mod = Modulation::kQpsk;
    return u;
}

TEST(MimoChannel, LinkPowerAveragesToUnity)
{
    // E[|H|^2] per link is 1 (unit-power tapped delay line); average
    // over many realisations and subcarriers.
    ChannelConfig cfg;
    cfg.n_antennas = 2;
    Rng rng(11);
    RunningStats power;
    for (int trial = 0; trial < 200; ++trial) {
        MimoChannel chan(cfg, 2, rng);
        const CVec h = chan.frequency_response(0, 1, 120);
        for (const auto &v : h)
            power.add(std::norm(v));
    }
    EXPECT_NEAR(power.mean(), 1.0, 0.08);
}

TEST(MimoChannel, ApplyMatchesFrequencyResponseNoiselessly)
{
    // Push a single-layer grid through apply() with huge SNR and
    // compare each received subcarrier against H * X.
    ChannelConfig cfg;
    cfg.n_antennas = 3;
    cfg.snr_db = 90.0;
    Rng rng(21);
    const auto params = user(6, 1);
    const auto txr = tx::transmit_user(params, rng);
    MimoChannel chan(cfg, 1, rng);
    const auto rx = chan.apply(txr.grid, params, rng);

    for (std::size_t a = 0; a < cfg.n_antennas; ++a) {
        for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
            const std::size_t m = params.sc_in_slot(slot);
            const CVec h = chan.frequency_response(a, 0, m);
            for (std::size_t sym = 0; sym < kSymbolsPerSlot; ++sym) {
                const CVec &x = txr.grid.layers[0].slots[slot][sym];
                const CVec &y = rx.antennas[a].slots[slot][sym];
                for (std::size_t k = 0; k < m; ++k) {
                    EXPECT_LT(std::abs(y[k] - h[k] * x[k]), 1e-3f)
                        << "a=" << a << " k=" << k;
                }
            }
        }
    }
}

TEST(MimoChannel, NoisePowerMatchesConfiguredSnr)
{
    // Transmit a zero grid: whatever arrives is pure noise with
    // variance 10^(-snr/10).
    ChannelConfig cfg;
    cfg.n_antennas = 1;
    cfg.snr_db = 10.0;
    Rng rng(31);
    const auto params = user(50, 1);
    tx::LayerGrid zero_grid;
    zero_grid.layers.resize(1);
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        for (auto &sym : zero_grid.layers[0].slots[slot])
            sym.assign(params.sc_in_slot(slot), cf32(0.0f, 0.0f));
    }
    MimoChannel chan(cfg, 1, rng);
    const auto rx = chan.apply(zero_grid, params, rng);
    RunningStats noise;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        for (const auto &sym : rx.antennas[0].slots[slot]) {
            for (const auto &v : sym)
                noise.add(std::norm(v));
        }
    }
    EXPECT_NEAR(noise.mean(), from_db(-10.0), from_db(-10.0) * 0.1);
}

TEST(MimoChannel, DistinctLinksAreIndependent)
{
    ChannelConfig cfg;
    cfg.n_antennas = 2;
    Rng rng(41);
    MimoChannel chan(cfg, 2, rng);
    const CVec h00 = chan.frequency_response(0, 0, 60);
    const CVec h11 = chan.frequency_response(1, 1, 60);
    float diff = 0.0f;
    for (std::size_t k = 0; k < 60; ++k)
        diff = std::max(diff, std::abs(h00[k] - h11[k]));
    EXPECT_GT(diff, 0.1f);
}

TEST(MimoChannel, RejectsBadConfigAndUsage)
{
    ChannelConfig cfg;
    cfg.snr_db = 150.0; // outside the modelled (-20, 100) dB range
    Rng rng(1);
    EXPECT_THROW(MimoChannel chan(cfg, 1, rng), std::invalid_argument);

    ChannelConfig ok;
    MimoChannel chan(ok, 2, rng);
    EXPECT_THROW(chan.frequency_response(4, 0, 12),
                 std::invalid_argument);
    EXPECT_THROW(chan.frequency_response(0, 2, 12),
                 std::invalid_argument);
}

TEST(SignalSource, RandomSignalHasUnitPowerAndRightShape)
{
    const auto params = user(10, 2);
    Rng rng(9);
    const auto signal = random_user_signal(params, 4, rng);
    EXPECT_EQ(signal.antennas.size(), 4u);
    RunningStats power;
    for (const auto &ant : signal.antennas) {
        for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
            for (const auto &sym : ant.slots[slot]) {
                EXPECT_EQ(sym.size(), params.sc_in_slot(slot));
                for (const auto &v : sym)
                    power.add(std::norm(v));
            }
        }
    }
    EXPECT_NEAR(power.mean(), 1.0, 0.05);
}

TEST(SignalSource, RealisticSignalDecodesWithItsOwnExpectation)
{
    const auto params = user(8, 1);
    Rng rng(77);
    const auto realistic = realistic_user_signal(params, 4, 30.0, rng);
    EXPECT_FALSE(realistic.expected_bits.empty());
    EXPECT_EQ(realistic.signal.antennas.size(), 4u);
}

} // namespace
} // namespace lte::channel
