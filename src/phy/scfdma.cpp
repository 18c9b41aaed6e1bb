#include "phy/scfdma.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "fft/fft.hpp"

namespace lte::phy {

void
ScFdmaConfig::validate() const
{
    LTE_CHECK(n_fft >= 128 && (n_fft & (n_fft - 1)) == 0,
              "carrier FFT size must be a power of two >= 128");
    LTE_CHECK(n_used >= 1 && n_used < n_fft,
              "used band must fit inside the carrier");
}

std::size_t
ScFdmaConfig::cp_length(std::size_t symbol_in_slot) const
{
    LTE_CHECK(symbol_in_slot < kSymbolsPerSlot, "symbol out of range");
    const std::size_t base = symbol_in_slot == 0 ? 160 : 144;
    return base * n_fft / 2048;
}

std::size_t
ScFdmaConfig::samples_per_slot() const
{
    std::size_t total = 0;
    for (std::size_t s = 0; s < kSymbolsPerSlot; ++s)
        total += n_fft + cp_length(s);
    return total;
}

namespace {

/**
 * Carrier bin of used-band index u: the used band straddles DC with
 * the upper half on positive frequencies (bins 1..) and the lower
 * half wrapped to the top of the FFT order; DC itself is unused.
 */
std::size_t
used_to_bin(std::size_t u, const ScFdmaConfig &cfg)
{
    const std::size_t half = cfg.n_used / 2;
    if (u >= half)
        return u - half + 1; // positive frequencies, skipping DC
    return cfg.n_fft - half + u; // negative frequencies
}

} // namespace

void
map_to_carrier_into(CfView alloc, std::size_t start_sc,
                    const ScFdmaConfig &cfg, CfSpan carrier)
{
    cfg.validate();
    LTE_CHECK(carrier.size() == cfg.n_fft, "carrier size mismatch");
    LTE_CHECK(start_sc + alloc.size() <= cfg.n_used,
              "allocation exceeds the used band");
    for (auto &v : carrier)
        v = cf32(0.0f, 0.0f);
    for (std::size_t k = 0; k < alloc.size(); ++k)
        carrier[used_to_bin(start_sc + k, cfg)] = alloc[k];
}

CVec
map_to_carrier(const CVec &alloc, std::size_t start_sc,
               const ScFdmaConfig &cfg)
{
    cfg.validate();
    CVec carrier(cfg.n_fft);
    map_to_carrier_into(alloc, start_sc, cfg, carrier);
    return carrier;
}

void
extract_from_carrier_into(CfView carrier, std::size_t start_sc,
                          const ScFdmaConfig &cfg, CfSpan alloc)
{
    cfg.validate();
    LTE_CHECK(carrier.size() == cfg.n_fft, "carrier size mismatch");
    LTE_CHECK(start_sc + alloc.size() <= cfg.n_used,
              "allocation exceeds the used band");
    for (std::size_t k = 0; k < alloc.size(); ++k)
        alloc[k] = carrier[used_to_bin(start_sc + k, cfg)];
}

void
scfdma_modulate_into(CfView carrier, std::size_t symbol_in_slot,
                     const ScFdmaConfig &cfg, CfSpan out)
{
    cfg.validate();
    LTE_CHECK(carrier.size() == cfg.n_fft, "carrier size mismatch");
    const std::size_t cp = cfg.cp_length(symbol_in_slot);
    LTE_CHECK(out.size() == cp + cfg.n_fft,
              "output length mismatch");

    // IFFT the body directly into place after the CP gap (the carrier
    // FFT size is a power of two, so no plan scratch is needed
    // out-of-place), then copy the tail forward as the cyclic prefix.
    const CfSpan time = out.subspan(cp, cfg.n_fft);
    fft::FftCache::instance().plan(cfg.n_fft).inverse(
        carrier.data(), time.data(), CfSpan{});
    // Unitary scaling so energy is preserved across the pair.
    const float scale = std::sqrt(static_cast<float>(cfg.n_fft));
    for (auto &v : time)
        v *= scale;
    for (std::size_t k = 0; k < cp; ++k)
        out[k] = time[cfg.n_fft - cp + k];
}

CVec
scfdma_modulate(const CVec &carrier, std::size_t symbol_in_slot,
                const ScFdmaConfig &cfg)
{
    cfg.validate();
    CVec out(cfg.cp_length(symbol_in_slot) + cfg.n_fft);
    scfdma_modulate_into(carrier, symbol_in_slot, cfg, out);
    return out;
}

void
scfdma_demodulate_into(CfView time, std::size_t symbol_in_slot,
                       const ScFdmaConfig &cfg, CfSpan carrier)
{
    cfg.validate();
    const std::size_t cp = cfg.cp_length(symbol_in_slot);
    LTE_CHECK(time.size() == cp + cfg.n_fft,
              "time-domain symbol length mismatch");
    LTE_CHECK(carrier.size() == cfg.n_fft, "carrier size mismatch");

    fft::FftCache::instance().plan(cfg.n_fft).forward(
        time.data() + cp, carrier.data(), CfSpan{});
    const float scale = 1.0f / std::sqrt(static_cast<float>(cfg.n_fft));
    for (auto &v : carrier)
        v *= scale;
}

} // namespace lte::phy
