#include "phy/op_model.hpp"

#include "fft/fft.hpp"
#include "phy/turbo.hpp"

namespace lte::phy {

namespace {

constexpr std::uint64_t kCplxMulFlops = 6;
constexpr std::uint64_t kCplxMacFlops = 8;

/** Channel estimation for one (antenna, layer) pair in one slot. */
std::uint64_t
chanest_slot_ops(std::size_t m)
{
    const std::uint64_t fft_ops = fft::Fft::op_count_smooth(m);
    const std::uint64_t matched_filter = m * kCplxMulFlops;
    const std::uint64_t window = m;            // select/zero pass
    const std::uint64_t noise_estimate = m;    // magnitude accumulation
    return matched_filter + 2 * fft_ops + window + noise_estimate;
}

/** Combiner weights for one slot: per-subcarrier MMSE. */
std::uint64_t
weights_slot_ops(std::size_t m, std::size_t antennas, std::size_t layers)
{
    const std::uint64_t gram = antennas * layers * layers * kCplxMacFlops;
    const std::uint64_t load = layers * 2;
    const std::uint64_t inv = matrix_inverse_op_count(layers);
    const std::uint64_t mul = layers * layers * antennas * kCplxMacFlops;
    return m * (gram + load + inv + mul);
}

/** Degraded-mode combiner weights for one slot: per-layer MRC
 *  (matched filter normalised by the layer's channel energy). */
std::uint64_t
mrc_weights_slot_ops(std::size_t m, std::size_t antennas,
                     std::size_t layers)
{
    const std::uint64_t norm = antennas * kCplxMacFlops;
    const std::uint64_t scale = antennas * kCplxMulFlops;
    return m * layers * (norm + scale + 4);
}

/** One (data symbol, layer) demodulation task in one slot. */
std::uint64_t
demod_slot_ops(std::size_t m, std::size_t antennas)
{
    const std::uint64_t combine = m * antennas * kCplxMacFlops;
    const std::uint64_t bias = m * (antennas * kCplxMacFlops + 11);
    const std::uint64_t ifft = fft::Fft::op_count_smooth(m);
    const std::uint64_t scale = 2 * m;
    return combine + bias + ifft + scale;
}

/** Per-codeblock tail work for one slot and layer (6 data symbols):
 *  deinterleave, demap, descramble, harden. */
std::uint64_t
tail_slot_layer_ops(std::size_t m, Modulation mod)
{
    const std::uint64_t bps = bits_per_symbol(mod);
    // Separable per-axis max-log demapping: 2^(bps/2) levels per axis.
    const std::uint64_t levels = std::uint64_t{1} << (bps / 2);
    const std::uint64_t per_symbol =
        2 +                          // deinterleave move
        2 * levels * 3 +             // per-axis distance evaluations
        bps * levels +               // per-bit minima
        2 * levels * 3 +             // EVM nearest-level search
        bps * 2;                     // descramble + harden per bit
    return kDataSymbolsPerSlot * m * per_symbol;
}

/**
 * One max-log-MAP decode task over a k-bit code block.  A full
 * iteration runs two constituent passes — alpha recursion, fused
 * beta/LLR recursion, each touching all 8 trellis states per step —
 * plus the per-bit stream work (a-priori add, extrinsic update,
 * interleaver gather/scatter, decision + CRC check).  Zero iterations
 * is the degraded bypass: hard-decide and CRC the systematic bits.
 */
std::uint64_t
decode_block_ops(std::size_t k, std::uint32_t iterations)
{
    if (iterations == 0)
        return 2 * k;
    const std::uint64_t map_pass =
        static_cast<std::uint64_t>(k) * 8 * (6 + 6 + 4);
    const std::uint64_t streams = 9 * static_cast<std::uint64_t>(k);
    return iterations * (2 * map_pass + streams);
}

} // namespace

std::uint64_t
matrix_inverse_op_count(std::size_t n)
{
    const std::uint64_t n3 = static_cast<std::uint64_t>(n) * n * n;
    return 2 * n3 * kCplxMacFlops;
}

std::size_t
tail_codeblock_count(const UserParams &params)
{
    const std::size_t bps = bits_per_symbol(params.mod);
    const std::size_t blocks_per_slot =
        params.layers * kDataSymbolsPerSlot;
    std::size_t count = 0;
    std::size_t cb_bits = 0;
    for (std::size_t b = 0; b < kSlotsPerSubframe * blocks_per_slot;
         ++b) {
        const std::size_t block_bits =
            params.sc_in_slot(b / blocks_per_slot) * bps;
        if (count > 0 && cb_bits + block_bits <= kTailCodeblockBits) {
            cb_bits += block_bits;
        } else {
            ++count;
            cb_bits = block_bits;
        }
    }
    return count;
}

UserTaskCosts
user_task_costs(const UserParams &params, std::size_t n_antennas,
                bool degraded, const DecodeModel &decode)
{
    params.validate();
    UserTaskCosts costs;
    costs.n_chanest_tasks =
        static_cast<std::uint32_t>(n_antennas * params.layers);
    costs.n_demod_tasks =
        static_cast<std::uint32_t>(kDataSymbolsPerSlot * params.layers);
    costs.n_tail_tasks =
        static_cast<std::uint32_t>(tail_codeblock_count(params));

    std::uint64_t tail_cb_total = 0;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const std::size_t m = params.sc_in_slot(slot);
        costs.chanest_task += chanest_slot_ops(m);
        costs.weights +=
            degraded ? mrc_weights_slot_ops(m, n_antennas, params.layers)
                     : weights_slot_ops(m, n_antennas, params.layers);
        costs.demod_task += demod_slot_ops(m, n_antennas);
        for (std::size_t l = 0; l < params.layers; ++l)
            tail_cb_total += tail_slot_layer_ops(m, params.mod);
    }
    // CRC + checksum over the produced bits close the user in the
    // reduce continuation; the split keeps the aggregate identity
    // tail == tail_task * n_tail_tasks + tail_reduce exact.
    costs.tail = tail_cb_total + 2 * capacity_bits(params);
    costs.tail_task = tail_cb_total / costs.n_tail_tasks;
    costs.tail_reduce =
        costs.tail - costs.tail_task * costs.n_tail_tasks;
    if (decode.real_turbo) {
        const TurboSegmentation seg =
            turbo_segment(capacity_bits(params));
        costs.n_decode_tasks =
            static_cast<std::uint32_t>(seg.n_blocks);
        costs.decode_task =
            decode_block_ops(seg.block_info_bits, decode.iterations);
    }
    return costs;
}

} // namespace lte::phy
