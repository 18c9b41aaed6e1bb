/**
 * @file
 * SC-FDMA front-end — the statically defined receiver components of
 * the paper's Fig. 2 (cyclic-prefix handling and the carrier-wide
 * FFT), which the benchmark itself excludes.  Provided as a complete
 * substrate so the library can model the full air interface: the
 * transmitter maps a user's allocated subcarriers into the carrier
 * grid and produces cyclic-prefixed time-domain SC-FDMA symbols; the
 * receiver undoes both.
 *
 * Sizing follows 3GPP TS 36.211 for a normal cyclic prefix: with an
 * N-point carrier FFT, the first symbol of a slot carries a CP of
 * 160 * N / 2048 samples and the remaining six carry 144 * N / 2048.
 */
#ifndef LTE_PHY_SCFDMA_HPP
#define LTE_PHY_SCFDMA_HPP

#include <cstdint>

#include "common/types.hpp"

namespace lte::phy {

/** Carrier-level front-end configuration. */
struct ScFdmaConfig
{
    /** Carrier FFT size (2048 for 20 MHz, 512 for 5 MHz, ...). Must be
     *  a power of two >= 128. */
    std::size_t n_fft = 2048;
    /** Usable subcarriers (1200 for 20 MHz); must fit in n_fft. */
    std::size_t n_used = 1200;

    void validate() const;

    /** CP length in samples for a symbol position within a slot. */
    std::size_t cp_length(std::size_t symbol_in_slot) const;

    /** Total time-domain samples of one slot (7 symbols + CPs). */
    std::size_t samples_per_slot() const;
};

/**
 * Map an allocation's frequency samples into the carrier grid.
 *
 * Subcarrier k of the allocation lands on used-band position
 * start_sc + k; the used band occupies the carrier's centre, split
 * around DC in standard FFT order (positive frequencies first).
 *
 * @param alloc    the allocated subcarriers (size <= n_used)
 * @param start_sc first used-band index of the allocation
 */
CVec map_to_carrier(const CVec &alloc, std::size_t start_sc,
                    const ScFdmaConfig &cfg);

/**
 * Modulate one carrier-grid symbol to the time domain and prepend
 * its cyclic prefix.
 *
 * @param carrier        frequency-domain grid (n_fft samples)
 * @param symbol_in_slot position within the slot (selects CP length)
 */
CVec scfdma_modulate(const CVec &carrier, std::size_t symbol_in_slot,
                     const ScFdmaConfig &cfg);

/** Heap-free map_to_carrier: @p carrier (n_fft samples) is zeroed and
 *  filled with the allocation. */
void map_to_carrier_into(CfView alloc, std::size_t start_sc,
                         const ScFdmaConfig &cfg, CfSpan carrier);

/** Inverse of map_to_carrier: extract an allocation from the grid;
 *  @p alloc sizes the extraction. */
void extract_from_carrier_into(CfView carrier, std::size_t start_sc,
                               const ScFdmaConfig &cfg, CfSpan alloc);

/** Heap-free scfdma_modulate: writes CP + body into @p out, which
 *  must hold cp_length(symbol_in_slot) + n_fft samples. */
void scfdma_modulate_into(CfView carrier, std::size_t symbol_in_slot,
                          const ScFdmaConfig &cfg, CfSpan out);

/** Inverse of scfdma_modulate: remove the CP and FFT back to the
 *  frequency-domain grid; @p carrier must hold n_fft samples. */
void scfdma_demodulate_into(CfView time, std::size_t symbol_in_slot,
                            const ScFdmaConfig &cfg, CfSpan carrier);

} // namespace lte::phy

#endif // LTE_PHY_SCFDMA_HPP
