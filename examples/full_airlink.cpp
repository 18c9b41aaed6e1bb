/**
 * @file
 * Full air-interface demo: unlike the benchmark (which, like the
 * paper, starts at the per-user subcarriers), this example runs the
 * complete Fig. 2 chain — the user's DFT-spread symbols are mapped
 * into the 20 MHz carrier grid, SC-FDMA modulated with cyclic
 * prefixes into the time domain, passed through a *time-domain*
 * multipath channel with AWGN, and then recovered by the front-end
 * (CP removal + carrier FFT + de-mapping) before the regular
 * UserProcessor decodes the payload.
 */
#include <iostream>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "phy/scfdma.hpp"
#include "phy/user_processor.hpp"
#include "tx/transmitter.hpp"

namespace {

using namespace lte;

/** Convolve with a sparse time-domain channel and add noise. */
CVec
time_channel(const CVec &tx, const std::vector<std::size_t> &delays,
             const std::vector<cf32> &gains, float noise_std, Rng &rng)
{
    CVec rx(tx.size(), cf32(0.0f, 0.0f));
    for (std::size_t tap = 0; tap < delays.size(); ++tap) {
        for (std::size_t i = delays[tap]; i < tx.size(); ++i)
            rx[i] += gains[tap] * tx[i - delays[tap]];
    }
    for (auto &v : rx) {
        v += cf32(static_cast<float>(rng.next_gaussian()) * noise_std,
                  static_cast<float>(rng.next_gaussian()) * noise_std);
    }
    return rx;
}

} // namespace

int
main()
{
    using namespace lte;

    phy::UserParams user;
    user.id = 4;
    user.prb = 16;
    user.layers = 1; // single layer so one antenna suffices
    user.mod = Modulation::k16Qam;

    phy::ScFdmaConfig carrier_cfg; // 2048-point, 1200 used (20 MHz)
    const std::size_t start_sc = 120;

    std::cout << "full SC-FDMA air link: " << user.prb << " PRBs at "
              << modulation_name(user.mod) << ", carrier FFT "
              << carrier_cfg.n_fft << "\n";

    Rng rng(2026);
    const tx::TxResult txr = tx::transmit_user(user, rng);

    // Time-domain multipath strictly inside the cyclic prefix.
    const std::vector<std::size_t> delays = {0, 17, 53};
    const std::vector<cf32> gains = {cf32(0.9f, 0.1f),
                                     cf32(0.25f, -0.2f),
                                     cf32(-0.1f, 0.15f)};
    const float noise_std = static_cast<float>(
        std::sqrt(from_db(-35.0) / 2.0)); // 35 dB SNR

    phy::UserSignal rx_signal;
    rx_signal.antennas.resize(1);

    CVec rx_carrier(carrier_cfg.n_fft);
    std::size_t tx_samples = 0;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const std::size_t m_sc = user.sc_in_slot(slot);
        for (std::size_t sym = 0; sym < kSymbolsPerSlot; ++sym) {
            // Transmit side: allocation -> carrier -> time + CP.
            const CVec &alloc = txr.grid.layers[0].slots[slot][sym];
            const CVec carrier =
                phy::map_to_carrier(alloc, start_sc, carrier_cfg);
            const CVec time =
                phy::scfdma_modulate(carrier, sym, carrier_cfg);
            tx_samples += time.size();

            // Radio channel in the true time domain.
            const CVec rx_time =
                time_channel(time, delays, gains, noise_std, rng);

            // Front end: CP removal + FFT + subcarrier de-mapping.
            phy::scfdma_demodulate_into(rx_time, sym, carrier_cfg,
                                        rx_carrier);
            CVec &rx_alloc = rx_signal.antennas[0].slots[slot][sym];
            rx_alloc.resize(m_sc);
            phy::extract_from_carrier_into(rx_carrier, start_sc,
                                           carrier_cfg, rx_alloc);
        }
    }

    phy::ReceiverConfig rcfg;
    rcfg.n_antennas = 1;
    phy::UserProcessor proc(user, rcfg, &rx_signal);
    const auto result = proc.process_all();

    std::cout << "time-domain samples transmitted: " << tx_samples
              << "\nchannel taps at delays {0, 17, 53} (CP is 144+)\n"
              << "CRC check: " << (result.crc_ok ? "PASS" : "FAIL")
              << "\npayload match: "
              << (result.bits == txr.payload_bits ? "exact"
                                                  : "MISMATCH")
              << "\nEVM (rms): " << result.evm_rms << "\n";
    return result.crc_ok && result.bits == txr.payload_bits ? 0 : 1;
}
