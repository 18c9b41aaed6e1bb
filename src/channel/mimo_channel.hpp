/**
 * @file
 * MIMO radio-channel simulation between the UE transmit grid and the
 * base-station receive antennas.
 *
 * [SUBSTITUTION — DESIGN.md Sec. 1] The paper drives its receiver with
 * synthetic IQ buffers; we model a tapped-delay-line Rayleigh channel
 * per (antenna, layer) pair plus AWGN so the receive chain (channel
 * estimation, MMSE combining, demapping) does real work and can be
 * verified end-to-end.  Tap delays are kept within the channel
 * estimator's window so a correctly implemented receiver decodes
 * cleanly at reasonable SNR.
 */
#ifndef LTE_CHANNEL_MIMO_CHANNEL_HPP
#define LTE_CHANNEL_MIMO_CHANNEL_HPP

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"
#include "tx/transmitter.hpp"

namespace lte::channel {

/** Channel model configuration. */
struct ChannelConfig
{
    std::size_t n_antennas = 4;
    /** Per-layer SNR in dB (noise variance = 10^(-snr/10)). */
    double snr_db = 30.0;

    void validate() const;
};

/**
 * A frozen channel realisation for one user: tapped delay lines for
 * every (antenna, layer) link, constant across the subframe (block
 * fading).  Tap gains are complex Gaussian with total unit average
 * power per link.
 */
class MimoChannel
{
  public:
    /**
     * Draw a realisation.
     *
     * @param cfg    model parameters
     * @param layers number of transmit layers
     * @param rng    randomness source (deterministic per seed)
     */
    MimoChannel(const ChannelConfig &cfg, std::size_t layers, Rng &rng);

    /**
     * Exact frequency response of link (antenna, layer) over an
     * allocation of @p m_sc subcarriers — ground truth for tests.
     */
    CVec frequency_response(std::size_t antenna, std::size_t layer,
                            std::size_t m_sc) const;

    /**
     * Propagate a transmit grid: superpose all layers through their
     * links onto each antenna and add AWGN.
     *
     * @param grid   the UE transmit grid
     * @param params user parameters (for per-slot allocation sizes)
     * @param rng    noise source
     */
    phy::UserSignal apply(const tx::LayerGrid &grid,
                          const phy::UserParams &params, Rng &rng) const;

    const ChannelConfig &config() const { return cfg_; }

  private:
    struct Tap
    {
        double delay_fraction; ///< delay as a fraction of m_sc
        cf32 gain;
    };

    ChannelConfig cfg_;
    std::size_t layers_;
    /** taps_[antenna][layer] */
    std::vector<std::vector<std::vector<Tap>>> taps_;
};

} // namespace lte::channel

#endif // LTE_CHANNEL_MIMO_CHANNEL_HPP
