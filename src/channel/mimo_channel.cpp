#include "channel/mimo_channel.hpp"

#include <cmath>
#include <numbers>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace lte::channel {

namespace {

/** Multipath taps per (antenna, layer) link. */
constexpr std::size_t kTaps = 3;

/**
 * Maximum tap delay as a fraction of the allocation size; must be
 * comfortably inside the channel estimator's window (the window keeps
 * ~9% causal delay bins).
 */
constexpr double kDelaySpreadFraction = 0.02;
static_assert(kDelaySpreadFraction >= 0.0 && kDelaySpreadFraction < 0.05,
              "delay spread must stay inside the estimator window");

} // namespace

void
ChannelConfig::validate() const
{
    LTE_CHECK(n_antennas >= 1 && n_antennas <= kMaxRxAntennas,
              "antennas must be 1..4");
    LTE_CHECK(snr_db > -20.0 && snr_db < 100.0, "unreasonable SNR");
}

MimoChannel::MimoChannel(const ChannelConfig &cfg, std::size_t layers,
                         Rng &rng)
    : cfg_(cfg), layers_(layers)
{
    cfg_.validate();
    LTE_CHECK(layers >= 1 && layers <= kMaxLayers, "layers must be 1..4");

    const double per_tap_power = 1.0 / static_cast<double>(kTaps);
    taps_.resize(cfg_.n_antennas);
    for (auto &per_antenna : taps_) {
        per_antenna.resize(layers_);
        for (auto &link : per_antenna) {
            link.resize(kTaps);
            for (std::size_t t = 0; t < kTaps; ++t) {
                // First tap at delay 0, the rest uniform in the spread.
                const double frac =
                    t == 0 ? 0.0
                           : rng.next_double() * kDelaySpreadFraction;
                const double scale = std::sqrt(per_tap_power / 2.0);
                link[t].delay_fraction = frac;
                link[t].gain = cf32(
                    static_cast<float>(rng.next_gaussian() * scale),
                    static_cast<float>(rng.next_gaussian() * scale));
            }
        }
    }
}

CVec
MimoChannel::frequency_response(std::size_t antenna, std::size_t layer,
                                std::size_t m_sc) const
{
    LTE_CHECK(antenna < cfg_.n_antennas, "antenna out of range");
    LTE_CHECK(layer < layers_, "layer out of range");
    CVec h(m_sc, cf32(0.0f, 0.0f));
    for (const Tap &tap : taps_[antenna][layer]) {
        // Integer sample delay for this allocation size.
        const double delay = std::floor(
            tap.delay_fraction * static_cast<double>(m_sc));
        for (std::size_t k = 0; k < m_sc; ++k) {
            const double angle = -2.0 * std::numbers::pi * delay *
                                 static_cast<double>(k) /
                                 static_cast<double>(m_sc);
            h[k] += tap.gain *
                    cf32(static_cast<float>(std::cos(angle)),
                         static_cast<float>(std::sin(angle)));
        }
    }
    return h;
}

phy::UserSignal
MimoChannel::apply(const tx::LayerGrid &grid,
                   const phy::UserParams &params, Rng &rng) const
{
    LTE_CHECK(grid.layers.size() == layers_,
              "grid layer count mismatch");
    LTE_CHECK(params.layers == layers_, "params layer count mismatch");

    const float noise_std = static_cast<float>(
        std::sqrt(from_db(-cfg_.snr_db) / 2.0));

    phy::UserSignal out;
    out.antennas.resize(cfg_.n_antennas);

    for (std::size_t a = 0; a < cfg_.n_antennas; ++a) {
        for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
            const std::size_t m_sc = params.sc_in_slot(slot);
            for (std::size_t sym = 0; sym < kSymbolsPerSlot; ++sym) {
                CVec rx(m_sc, cf32(0.0f, 0.0f));
                for (std::size_t l = 0; l < layers_; ++l) {
                    const CVec h = frequency_response(a, l, m_sc);
                    const CVec &x = grid.layers[l].slots[slot][sym];
                    LTE_CHECK(x.size() == m_sc,
                              "grid symbol length mismatch");
                    for (std::size_t k = 0; k < m_sc; ++k)
                        rx[k] += h[k] * x[k];
                }
                for (auto &v : rx) {
                    v += cf32(static_cast<float>(rng.next_gaussian()) *
                                  noise_std,
                              static_cast<float>(rng.next_gaussian()) *
                                  noise_std);
                }
                out.antennas[a].slots[slot][sym] = std::move(rx);
            }
        }
    }
    return out;
}

} // namespace lte::channel
