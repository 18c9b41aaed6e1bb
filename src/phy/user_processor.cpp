#include "phy/user_processor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "fft/fft.hpp"
#include "phy/channel_estimator.hpp"
#include "phy/crc.hpp"
#include "phy/interleaver.hpp"
#include "phy/kernel_scratch.hpp"
#include "phy/modulation.hpp"
#include "phy/op_model.hpp"
#include "phy/scrambler.hpp"
#include "phy/turbo.hpp"
#include "phy/zadoff_chu.hpp"

namespace lte::phy {

namespace {

/** MMSE diagonal loading when no noise estimate is available. */
constexpr float kDefaultNoiseVar = 0.05f;
static_assert(kDefaultNoiseVar > 0.0f, "noise variance must be positive");

/** Map a data-symbol index (0..5) to its slot position (skips DMRS). */
std::size_t
data_symbol_position(std::size_t data_symbol)
{
    return data_symbol < kRefSymbolIndex ? data_symbol : data_symbol + 1;
}

} // namespace

void
UserSignal::validate(const UserParams &params, std::size_t n_antennas) const
{
    LTE_CHECK(antennas.size() == n_antennas, "antenna count mismatch");
    for (const auto &ant : antennas) {
        for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
            for (const auto &sym : ant.slots[slot]) {
                LTE_CHECK(sym.size() == params.sc_in_slot(slot),
                          "symbol length mismatch");
            }
        }
    }
}

std::uint64_t
bit_checksum(const std::vector<std::uint8_t> &bits)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bits) {
        hash ^= b;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

UserProcessor::UserProcessor(const ReceiverConfig &config)
    : config_(config)
{
    config_.validate();
}

UserProcessor::UserProcessor(const UserParams &params,
                             const ReceiverConfig &config,
                             const UserSignal *signal)
    : UserProcessor(config)
{
    bind(params, signal);
}

void
UserProcessor::bind(const UserParams &params, const UserSignal *signal)
{
    params.validate();
    LTE_CHECK(signal != nullptr, "signal must not be null");
    signal->validate(params, config_.n_antennas);
    params_ = params;
    signal_ = signal;

    const std::size_t layers = params_.layers;
    const std::size_t antennas = config_.n_antennas;
    const std::size_t cap = capacity_bits(params_);

    // Size the arena for this binding.  reserve() grows only past the
    // high-water mark, so a steady workload stops allocating after the
    // largest user shape has been seen once.
    std::size_t bytes = 0;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const std::size_t m = params_.sc_in_slot(slot);
        bytes += Workspace::required<cf32>(layers * m);              // dmrs
        bytes += Workspace::required<cf32>(antennas * layers * m);   // chan
        bytes +=
            Workspace::required<cf32>(kDataSymbolsPerSlot * layers * m);
        bytes += Workspace::required<std::size_t>(m);                // perm
    }
    bytes += Workspace::required<Llr>(cap);
    arena_.reserve(bytes);

    // Carve all views, then precompute the per-slot constants.
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const std::size_t m = params_.sc_in_slot(slot);
        for (std::size_t l = 0; l < layers; ++l) {
            dmrs_[slot][l] = arena_.alloc<cf32>(m);
            user_dmrs_into(params_.id, slot, l, dmrs_[slot][l],
                           config_.cell_id);
        }
        channel_[slot] = arena_.alloc<cf32>(antennas * layers * m);
        equalised_[slot] =
            arena_.alloc<cf32>(kDataSymbolsPerSlot * layers * m);
        perm_[slot] = arena_.alloc<std::size_t>(m);
        interleave_permutation_into(m, kInterleaverColumns, perm_[slot]);
    }
    llrs_ = arena_.alloc<Llr>(cap);

    // Segment the canonical codeword into tail codeblocks: greedy
    // packing of consecutive (slot, layer, data-symbol) blocks up to
    // kTailCodeblockBits each.  clear() keeps the vector's capacity,
    // so re-binding stops allocating once the largest user shape has
    // been seen (≤ kMaxTailTasks entries either way).
    codeblocks_.clear();
    const std::size_t bps = bits_per_symbol(params_.mod);
    const std::size_t blocks_per_slot = layers * kDataSymbolsPerSlot;
    std::size_t bit_off = 0;
    for (std::size_t b = 0; b < kSlotsPerSubframe * blocks_per_slot;
         ++b) {
        const std::size_t block_bits =
            params_.sc_in_slot(b / blocks_per_slot) * bps;
        if (!codeblocks_.empty() &&
            codeblocks_.back().n_bits + block_bits <=
                kTailCodeblockBits) {
            codeblocks_.back().n_blocks += 1;
            codeblocks_.back().n_bits += block_bits;
        } else {
            codeblocks_.push_back(
                {static_cast<std::uint32_t>(b), 1, bit_off, block_bits});
        }
        bit_off += block_bits;
    }
    LTE_ASSERT(bit_off == cap, "codeblock segmentation bit mismatch");
    LTE_ASSERT(codeblocks_.size() == tail_codeblock_count(params_),
               "segmentation disagrees with the op model");

    // Size the decoded-bit storage up front so tail/decode tasks write
    // disjoint slices without a resize (capacity reused across binds).
    // Real-turbo mode fixes the framing at the transport-block size of
    // the LTE segmentation here, at bind time, so a degrade flip
    // between bind and execution can never change the bit count.
    if (config_.use_real_turbo) {
        seg_ = turbo_segment(cap);
        LTE_ASSERT(seg_.n_blocks <= kMaxTurboCodeblocks,
                   "segmentation exceeds the codeblock ceiling");
        turbo_pi_ = &qpp_interleaver(seg_.block_info_bits);
        result_.bits.resize(seg_.tb_bits());
    } else {
        seg_ = TurboSegmentation{};
        turbo_pi_ = nullptr;
        result_.bits.resize(cap);
    }
    cb_iterations_.fill(0);

    task_noise_.fill(0.0f);
    noise_var_ = 0.0f;
    bound_ = true;
}

CfSpan
UserProcessor::channel_slice(std::size_t slot, std::size_t antenna,
                             std::size_t layer)
{
    const std::size_t m = params_.sc_in_slot(slot);
    return channel_[slot].subspan(
        (antenna * params_.layers + layer) * m, m);
}

CfSpan
UserProcessor::equalised_slice(std::size_t slot, std::size_t layer,
                               std::size_t data_symbol)
{
    const std::size_t m = params_.sc_in_slot(slot);
    return equalised_[slot].subspan(
        (layer * kDataSymbolsPerSlot + data_symbol) * m, m);
}

CfView
UserProcessor::equalised(std::size_t slot, std::size_t layer,
                         std::size_t data_symbol) const
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    LTE_CHECK(slot < kSlotsPerSubframe && layer < params_.layers &&
                  data_symbol < kDataSymbolsPerSlot,
              "equalised block out of range");
    const std::size_t m = params_.sc_in_slot(slot);
    return CfView(equalised_[slot])
        .subspan((layer * kDataSymbolsPerSlot + data_symbol) * m, m);
}

std::size_t
UserProcessor::n_chanest_tasks() const
{
    return config_.n_antennas * params_.layers;
}

std::size_t
UserProcessor::n_demod_tasks() const
{
    return kDataSymbolsPerSlot * params_.layers;
}

void
UserProcessor::run_chanest_task(std::size_t task_index)
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    LTE_CHECK(task_index < n_chanest_tasks(), "task index out of range");
    const std::size_t antenna = task_index / params_.layers;
    const std::size_t layer = task_index % params_.layers;

    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const CVec &received =
            signal_->antennas[antenna].slots[slot][kRefSymbolIndex];
        task_noise_[task_index * kSlotsPerSubframe + slot] =
            estimate_channel_into(received, dmrs_[slot][layer],
                                  channel_slice(slot, antenna, layer),
                                  kernel_scratch());
    }
}

void
UserProcessor::compute_weights()
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    // Pool the per-task noise estimates; fall back to the fixed
    // default when the allocation was too small to provide guard bins.
    const std::size_t n_noise =
        n_chanest_tasks() * kSlotsPerSubframe;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < n_noise; ++i) {
        if (task_noise_[i] > 0.0f) {
            sum += task_noise_[i];
            ++n;
        }
    }
    noise_var_ = n > 0 ? static_cast<float>(sum / static_cast<double>(n))
                       : kDefaultNoiseVar;
    noise_var_ = std::max(noise_var_, 1e-6f);

    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        const ChannelView view{channel_[slot].data(), config_.n_antennas,
                               params_.layers, params_.sc_in_slot(slot)};
        if (degrade_ != DegradeLevel::kNone)
            compute_mrc_weights_into(view, noise_var_, weights_[slot]);
        else
            compute_combiner_weights_into(view, noise_var_,
                                          weights_[slot]);
    }
}

void
UserProcessor::run_demod_task(std::size_t task_index)
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    LTE_CHECK(task_index < n_demod_tasks(), "task index out of range");
    const std::size_t data_symbol = task_index % kDataSymbolsPerSlot;
    const std::size_t layer = task_index / kDataSymbolsPerSlot;
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot)
        demod_one(slot, data_symbol, layer);
}

void
UserProcessor::demod_one(std::size_t slot, std::size_t data_symbol,
                         std::size_t layer)
{
    const std::size_t m_sc = params_.sc_in_slot(slot);
    const std::size_t position = data_symbol_position(data_symbol);

    // Antenna combining straight from the received signal views (no
    // copies); the combined symbol lives in this thread's scratch.
    std::array<CfView, kMaxRxAntennas> rx;
    for (std::size_t a = 0; a < config_.n_antennas; ++a) {
        const CVec &sym = signal_->antennas[a].slots[slot][position];
        rx[a] = CfView(sym.data(), sym.size());
    }
    const CfSpan scratch = kernel_scratch();
    const CfSpan combined = scratch.subspan(0, m_sc);
    const CfSpan fft_scratch = scratch.subspan(m_sc);
    combine_layer_into(
        std::span<const CfView>(rx.data(), config_.n_antennas),
        weights_[slot], layer, combined);

    // MMSE bias correction: scale each subcarrier by the effective
    // gain sum_a W(l,a) H(a,l) so constellation points land on grid.
    const ChannelView chan{channel_[slot].data(), config_.n_antennas,
                           params_.layers, m_sc};
    apply_mmse_bias_into(chan, weights_[slot], layer, combined);

    // SC-FDMA despreading: back to the time domain where the
    // constellation symbols live.
    const CfSpan time = equalised_slice(slot, layer, data_symbol);
    fft::FftCache::instance().plan(m_sc).inverse(
        combined.data(), time.data(), fft_scratch);
    // The transmit DFT spread scales by 1/sqrt(m); undo the pair.
    const float scale = std::sqrt(static_cast<float>(m_sc));
    for (auto &v : time)
        v *= scale;
}

std::size_t
UserProcessor::n_tail_tasks() const
{
    return codeblocks_.size();
}

void
UserProcessor::run_tail_task(std::size_t task_index)
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    LTE_CHECK(task_index < n_tail_tasks(), "task index out of range");

    const CodeblockSlice &cb = codeblocks_[task_index];
    const std::size_t first_block = cb.first_block;
    const std::size_t n_blocks = cb.n_blocks;
    const std::size_t bit_offset = cb.bit_offset;
    const std::size_t n_bits = cb.n_bits;

    // Canonical framing order (mirrored by the transmitter):
    // slot -> layer -> data symbol -> sample.
    const std::size_t bps = bits_per_symbol(params_.mod);
    const std::size_t blocks_per_slot =
        params_.layers * kDataSymbolsPerSlot;
    double evm_acc = 0.0;
    std::size_t evm_n = 0;
    std::size_t off = bit_offset;
    for (std::size_t b = first_block; b < first_block + n_blocks; ++b) {
        const std::size_t slot = b / blocks_per_slot;
        const std::size_t rem = b % blocks_per_slot;
        const std::size_t layer = rem / kDataSymbolsPerSlot;
        const std::size_t ds = rem % kDataSymbolsPerSlot;
        const std::size_t m = params_.sc_in_slot(slot);
        const CfSpan deint = kernel_scratch().first(m);
        deinterleave_into(equalised_slice(slot, layer, ds),
                          perm_[slot], deint);
        demodulate_soft_into(deint, params_.mod, noise_var_,
                             llrs_.subspan(off, m * bps));
        off += m * bps;
        evm_acc = accumulate_nearest_distance2(deint, params_.mod, evm_acc);
        evm_n += m;
    }
    LTE_ASSERT(off == bit_offset + n_bits,
               "codeblock LLR count mismatch");
    evm_acc_[task_index] = evm_acc;
    evm_n_[task_index] = evm_n;

    // Soft descrambling of just this slice: each task fast-forwards
    // its own Gold stream to the slice offset (the inverse of the
    // transmitter's bit scrambling).
    descramble_soft_inplace(
        llrs_.subspan(bit_offset, n_bits),
        scrambling_init(params_.id, config_.cell_id), bit_offset);

    // Pass-through mode hardens the slice here; real-turbo mode leaves
    // the soft codeword for the per-codeblock decode stage.
    if (!config_.use_real_turbo) {
        turbo_passthrough_into(
            LlrView(llrs_).subspan(bit_offset, n_bits),
            BitSpan(result_.bits).subspan(bit_offset, n_bits));
    }
}

std::size_t
UserProcessor::n_decode_tasks() const
{
    return config_.use_real_turbo ? seg_.n_blocks : 0;
}

void
UserProcessor::run_decode_task(std::size_t block)
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    LTE_CHECK(block < n_decode_tasks(), "decode block out of range");

    const std::size_t k = seg_.block_info_bits;
    const LlrView coded = LlrView(llrs_).subspan(
        block * seg_.block_coded_bits(), seg_.block_coded_bits());

    TurboDecoderConfig cfg;
    cfg.iterations = turbo_iterations_for(degrade_);

    // Segmented blocks each end in CRC-24B; a lone block *is* the
    // transport block, whose CRC-24A doubles as the stop condition.
    const std::uint32_t crc_poly =
        seg_.n_blocks > 1 ? kCrc24BPoly : kCrc24APoly;

    // Decode the full K bits (incl. any CRC-24B) into per-thread
    // scratch, then keep only the transport-block payload in this
    // block's disjoint slice of the result.
    TurboWorkspace &ws = turbo_scratch();
    ws.reserve(k);
    const TurboDecodeResult res = turbo_decode_block_into(
        coded, k, *turbo_pi_, cfg, crc_poly, ws,
        BitSpan(ws.bits.data(), k));
    const std::size_t data = seg_.block_data_bits();
    std::copy_n(ws.bits.data(), data,
                result_.bits.begin() +
                    static_cast<std::ptrdiff_t>(block * data));
    cb_iterations_[block] = res.iterations_run;
}

const UserResult &
UserProcessor::finish_reduce()
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    // Fold the per-codeblock EVM partials in canonical order so the
    // sum does not depend on which worker ran which tail task.
    double evm_acc = 0.0;
    std::size_t evm_n = 0;
    for (std::size_t t = 0; t < n_tail_tasks(); ++t) {
        evm_acc += evm_acc_[t];
        evm_n += evm_n_[t];
    }

    result_.user_id = params_.id;
    result_.noise_var = noise_var_;
    result_.evm_rms =
        evm_n > 0 ? std::sqrt(static_cast<float>(
                        evm_acc / static_cast<double>(evm_n)))
                  : 0.0f;
    // In every mode result_.bits ends with the transport block's
    // CRC-24A, so the one check below flags the CRC consistently
    // across pass-through, full decode and the degraded ladder.
    result_.decode_iterations = 0;
    for (std::size_t b = 0; b < n_decode_tasks(); ++b)
        result_.decode_iterations += cb_iterations_[b];
    result_.crc_ok = crc24_check(result_.bits);
    // The check above is only a real decode verdict when the max-log-
    // MAP decoder actually ran: pass-through mode CRCs hardened bits
    // that were never encoded, and the degrade bypass hard-decides
    // instead of decoding.  Flag those so link adaptation substitutes
    // a modelled error rate instead of learning from noise.
    result_.crc_modelled = !config_.use_real_turbo ||
                           degrade_ == DegradeLevel::kBypass;
    result_.checksum = bit_checksum(result_.bits);
    return result_;
}

const UserResult &
UserProcessor::finish()
{
    LTE_CHECK(bound_, "processor is not bound to a subframe");
    for (std::size_t t = 0; t < n_tail_tasks(); ++t)
        run_tail_task(t);
    for (std::size_t b = 0; b < n_decode_tasks(); ++b)
        run_decode_task(b);
    return finish_reduce();
}

const UserResult &
UserProcessor::process_all()
{
    for (std::size_t t = 0; t < n_chanest_tasks(); ++t)
        run_chanest_task(t);
    compute_weights();
    for (std::size_t t = 0; t < n_demod_tasks(); ++t)
        run_demod_task(t);
    return finish();
}

} // namespace lte::phy
