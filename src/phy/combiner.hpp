/**
 * @file
 * MIMO combiner-weight computation and antenna combining
 * (paper Sec. II-C): the combiner weights merge the data received on
 * multiple antennas into per-layer streams while adjusting for channel
 * conditions.
 *
 * Weights are per-subcarrier MMSE:
 *   W(f) = (H(f)^H H(f) + sigma^2 I)^-1 H(f)^H        (layers x antennas)
 * which reduces to matched-filter/MRC scaling for a single layer.
 */
#ifndef LTE_PHY_COMBINER_HPP
#define LTE_PHY_COMBINER_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace lte::phy {

/**
 * Per-subcarrier combiner weights for one slot.
 *
 * Storage is plane-major: one contiguous subcarrier run per
 * (layer, antenna) pair, i.e. weight[(layer * antennas + antenna) *
 * n_sc + sc].  The combining and bias-correction kernels stream each
 * plane sequentially, which is what makes their SIMD loads contiguous;
 * the accessors hide the layout from everyone else.
 */
class CombinerWeights
{
  public:
    CombinerWeights() = default;

    /**
     * Re-shape for a new slot, reusing the existing storage; only
     * grows the backing vector past its previous high-water mark.
     */
    void resize(std::size_t n_sc, std::size_t layers,
                std::size_t antennas);

    std::size_t n_subcarriers() const { return n_sc_; }
    std::size_t layers() const { return layers_; }
    std::size_t antennas() const { return antennas_; }

    /** Unchecked element access. */
    cf32 &
    operator()(std::size_t sc, std::size_t layer, std::size_t antenna)
    {
        return w_[(layer * antennas_ + antenna) * n_sc_ + sc];
    }

    const cf32 &
    operator()(std::size_t sc, std::size_t layer,
               std::size_t antenna) const
    {
        return w_[(layer * antennas_ + antenna) * n_sc_ + sc];
    }

    /** The contiguous n_subcarriers() weight run of one
     *  (layer, antenna) pair. */
    const cf32 *
    plane(std::size_t layer, std::size_t antenna) const
    {
        return w_.data() + (layer * antennas_ + antenna) * n_sc_;
    }

    cf32 *
    plane(std::size_t layer, std::size_t antenna)
    {
        return w_.data() + (layer * antennas_ + antenna) * n_sc_;
    }

  private:
    std::size_t n_sc_ = 0;
    std::size_t layers_ = 0;
    std::size_t antennas_ = 0;
    std::vector<cf32> w_;
};

/**
 * Read-only view of per-(antenna, layer) channel estimates stored as
 * one flat antenna-major buffer: data[(a * layers + l) * n_sc + sc].
 */
struct ChannelView
{
    const cf32 *data = nullptr;
    std::size_t antennas = 0;
    std::size_t layers = 0;
    std::size_t n_sc = 0;

    const cf32 &
    at(std::size_t antenna, std::size_t layer, std::size_t sc) const
    {
        return data[(antenna * layers + layer) * n_sc + sc];
    }
};

/**
 * Compute MMSE combiner weights from per-(antenna, layer) channel
 * estimates; @p out is re-shaped to match (allocation-free once at
 * capacity).  With LTE_SIMD=ON the Gram accumulation H^H H and the
 * add-noise / inverse / G^-1 H^H solve run kLanes subcarriers at a
 * time, bit-identical to solving each subcarrier's Gram on its own
 * FixedCMat (which is what the tail subcarriers still do);
 * single-layer allocations take a fully vectorized matched-filter
 * path.
 *
 * @param channel   non-null view with 1..FixedCMat::kMaxDim antennas
 *                  and layers
 * @param noise_var effective noise variance (diagonal loading); must
 *                  be positive
 * @throws std::invalid_argument on a view or noise variance outside
 *         those bounds
 */
void compute_combiner_weights_into(const ChannelView &channel,
                                   float noise_var,
                                   CombinerWeights &out);

/** Scalar reference twin of compute_combiner_weights_into (the plain
 *  per-subcarrier FixedCMat solve); SIMD parity tests compare against
 *  this. */
void compute_combiner_weights_scalar_into(const ChannelView &channel,
                                          float noise_var,
                                          CombinerWeights &out);

/**
 * Degraded-mode combiner weights: per-layer matched filter (MRC),
 * W(sc, l, a) = H*(a, l, sc) / (||H_l(sc)||^2 + noise_var), with no
 * layers x layers inverse.  Much cheaper than MMSE but ignores
 * inter-layer interference; used by the streaming engine's "degrade"
 * load-shedding policy when a subframe is running late.
 */
void compute_mrc_weights_into(const ChannelView &channel, float noise_var,
                              CombinerWeights &out);

/**
 * Combine one received SC-FDMA symbol across antennas into one layer's
 * frequency-domain samples: z(f) = sum_a W(f, layer, a) * y_a(f).
 * @p rx_symbol is one view per antenna and the combined samples are
 * written to @p out (n_subcarriers long).  Vectorized across
 * subcarriers when built with LTE_SIMD=ON.
 */
void combine_layer_into(std::span<const CfView> rx_symbol,
                        const CombinerWeights &weights, std::size_t layer,
                        CfSpan out);

/** Scalar reference twin of combine_layer_into. */
void combine_layer_scalar_into(std::span<const CfView> rx_symbol,
                               const CombinerWeights &weights,
                               std::size_t layer, CfSpan out);

/**
 * MMSE bias correction: divide each combined subcarrier by the
 * effective gain sum_a W(sc, layer, a) * H(a, layer, sc) so the
 * constellation points land back on grid.  Subcarriers whose bias
 * magnitude is negligible (|bias|^2 <= 1e-12) are left untouched.
 * Vectorized across subcarriers when built with LTE_SIMD=ON.
 */
void apply_mmse_bias_into(const ChannelView &channel,
                          const CombinerWeights &weights,
                          std::size_t layer, CfSpan combined);

/** Scalar reference twin of apply_mmse_bias_into. */
void apply_mmse_bias_scalar_into(const ChannelView &channel,
                                 const CombinerWeights &weights,
                                 std::size_t layer, CfSpan combined);

} // namespace lte::phy

#endif // LTE_PHY_COMBINER_HPP
