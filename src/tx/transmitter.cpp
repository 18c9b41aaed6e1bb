#include "tx/transmitter.hpp"

#include <cmath>

#include "common/check.hpp"
#include "fft/fft.hpp"
#include "phy/crc.hpp"
#include "phy/scrambler.hpp"
#include "phy/interleaver.hpp"
#include "phy/modulation.hpp"
#include "phy/turbo.hpp"
#include "phy/zadoff_chu.hpp"

namespace lte::tx {

namespace {

std::size_t
data_symbol_position(std::size_t data_symbol)
{
    return data_symbol < kRefSymbolIndex ? data_symbol : data_symbol + 1;
}

/**
 * Expand payload bits into the on-air bit stream of capacity length:
 * pass-through keeps the framed payload; real-turbo mode segments the
 * transport block into LTE code blocks (CRC-24B per block past one),
 * turbo-encodes each, concatenates and zero-pads.  Either way the
 * stream is scrambled with the user's Gold sequence (TS 36.211
 * Sec. 7.2) before modulation.
 */
std::vector<std::uint8_t>
on_air_bits(const phy::UserParams &params,
            const std::vector<std::uint8_t> &framed, bool real_turbo,
            std::uint32_t cell_id)
{
    const std::size_t capacity = phy::capacity_bits(params);
    std::vector<std::uint8_t> air;
    if (!real_turbo) {
        LTE_CHECK(framed.size() == capacity,
                  "framed payload must fill the capacity");
        air = framed;
    } else {
        const phy::TurboSegmentation seg = phy::turbo_segment(capacity);
        LTE_CHECK(framed.size() == seg.tb_bits(),
                  "transport block must match the segmentation");
        const std::size_t data = seg.block_data_bits();
        air.reserve(capacity);
        for (std::size_t b = 0; b < seg.n_blocks; ++b) {
            std::vector<std::uint8_t> info(
                framed.begin() + static_cast<std::ptrdiff_t>(b * data),
                framed.begin() +
                    static_cast<std::ptrdiff_t>((b + 1) * data));
            if (seg.n_blocks > 1)
                info = phy::crc24_attach(std::move(info),
                                         phy::kCrc24BPoly);
            const std::vector<std::uint8_t> coded =
                phy::turbo_encode(info);
            air.insert(air.end(), coded.begin(), coded.end());
        }
        LTE_CHECK(air.size() <= capacity,
                  "turbo output exceeds allocation capacity");
        air.resize(capacity, 0);
    }
    return phy::scramble(air, phy::scrambling_init(params.id, cell_id));
}

} // namespace

TxResult
transmit_user_payload(const phy::UserParams &params,
                      std::vector<std::uint8_t> payload, bool real_turbo,
                      std::uint32_t cell_id)
{
    params.validate();
    const std::size_t bps = bits_per_symbol(params.mod);

    const std::vector<std::uint8_t> framed =
        phy::crc24_attach(std::move(payload));
    const std::vector<std::uint8_t> air =
        on_air_bits(params, framed, real_turbo, cell_id);

    TxResult result;
    result.payload_bits = framed;
    result.grid.layers.resize(params.layers);

    // Canonical framing order, mirroring UserProcessor::finish():
    // slot -> layer -> data symbol -> sample.
    std::size_t bit_pos = 0;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const std::size_t m_sc = params.sc_in_slot(slot);
        const float dft_scale =
            1.0f / std::sqrt(static_cast<float>(m_sc));
        const fft::Fft &plan = fft::FftCache::instance().plan(m_sc);

        for (std::size_t layer = 0; layer < params.layers; ++layer) {
            auto &slots = result.grid.layers[layer].slots[slot];

            // DMRS at the reference position.
            slots[kRefSymbolIndex] =
                phy::user_dmrs(params.id, slot, m_sc, layer, cell_id);

            for (std::size_t ds = 0; ds < kDataSymbolsPerSlot; ++ds) {
                const std::vector<std::uint8_t> chunk(
                    air.begin() + static_cast<std::ptrdiff_t>(bit_pos),
                    air.begin() +
                        static_cast<std::ptrdiff_t>(bit_pos +
                                                    m_sc * bps));
                bit_pos += m_sc * bps;

                const CVec symbols = phy::modulate(chunk, params.mod);
                const CVec interleaved = phy::interleave(symbols);

                CVec freq(m_sc);
                plan.forward(interleaved.data(), freq.data());
                for (auto &v : freq)
                    v *= dft_scale;
                slots[data_symbol_position(ds)] = std::move(freq);
            }
        }
    }
    LTE_ASSERT(bit_pos == air.size(), "framing did not consume all bits");
    return result;
}

TxResult
transmit_user(const phy::UserParams &params, Rng &rng, bool real_turbo,
              std::uint32_t cell_id)
{
    const std::size_t capacity = phy::capacity_bits(params);
    const std::size_t payload_len =
        real_turbo ? phy::turbo_segment(capacity).tb_bits() - 24
                   : capacity - 24;
    std::vector<std::uint8_t> payload(payload_len);
    for (auto &b : payload)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);
    return transmit_user_payload(params, std::move(payload), real_turbo,
                                 cell_id);
}

} // namespace lte::tx
