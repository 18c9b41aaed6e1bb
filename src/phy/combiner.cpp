#include "phy/combiner.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/workspace.hpp"
#include "matrix/fixed_cmat.hpp"
#include "phy/kernel_scratch.hpp"
#include "simd/complex.hpp"

namespace lte::phy {

void
CombinerWeights::resize(std::size_t n_sc, std::size_t layers,
                        std::size_t antennas)
{
    n_sc_ = n_sc;
    layers_ = layers;
    antennas_ = antennas;
    w_.assign(n_sc * layers * antennas, cf32(0.0f, 0.0f));
}

namespace {

#if defined(LTE_SIMD_ENABLED)

/** Subcarriers per Gram tile: multiple of every backend's kLanes, and
 *  small enough that the split-complex tile (kMaxGramPairs planes)
 *  fits comfortably inside the per-thread kernel scratch. */
constexpr std::size_t kWeightsTile = 256;

/** Upper-triangle entry count of the largest Gram the kernel accepts
 *  (FixedCMat::kMaxDim layers). */
constexpr std::size_t kMaxGramPairs =
    matrix::FixedCMat::kMaxDim * (matrix::FixedCMat::kMaxDim + 1) / 2;

static_assert(kMaxGramPairs * kWeightsTile <= kernel_scratch_samples(),
              "the Gram tile must fit in the per-thread kernel scratch");

/**
 * Single-layer MMSE weights, fully vectorized: the Gram is the scalar
 * sum_a |h_a|^2, so weights reduce to conj(h) / (gram + noise_var)
 * with no matrix algebra at all.
 */
void
weights_simd_single_layer(const ChannelView &ch, float noise_var,
                          CombinerWeights &out)
{
    const std::size_t n = ch.n_sc;
    const std::size_t antennas = ch.antennas;
    const simd::vf nv = simd::vf::set1(noise_var);
    const simd::vf one = simd::vf::set1(1.0f);

    std::size_t sc = 0;
    for (; sc + simd::kLanes <= n; sc += simd::kLanes) {
        simd::vf gram = simd::vf::zero();
        for (std::size_t a = 0; a < antennas; ++a) {
            const simd::cvf h = simd::cload(&ch.at(a, 0, sc));
            gram = gram + simd::cnorm(h);
        }
        const simd::vf inv = one / (gram + nv);
        for (std::size_t a = 0; a < antennas; ++a) {
            const simd::cvf h = simd::cload(&ch.at(a, 0, sc));
            simd::cstore(out.plane(0, a) + sc,
                         {h.re * inv, simd::vneg(h.im) * inv});
        }
    }
    for (; sc < n; ++sc) {
        float gram = 0.0f;
        for (std::size_t a = 0; a < antennas; ++a)
            gram += std::norm(ch.at(a, 0, sc));
        const float inv = 1.0f / (gram + noise_var);
        for (std::size_t a = 0; a < antennas; ++a)
            out.plane(0, a)[sc] = std::conj(ch.at(a, 0, sc)) * inv;
    }
}

/**
 * The add-noise / invert / W = G^-1 H^H solve of kLanes consecutive
 * subcarriers, one per lane, on split-complex stack matrices.  Each
 * lane performs exactly the float operations, in the same order, of
 * FixedCMat::add_scaled_identity(noise_var).inverse() and the scalar
 * twin's product, so its weights are bit-identical to a
 * one-subcarrier-at-a-time solve:
 *   - the pivot search compares simd::cabs (std::abs bit for bit)
 *     with the scalar's strict `mag > best` and swaps rows by masked
 *     select, so every lane picks the row the scalar would;
 *   - the pivot row scale is simd::crecip (cf32(1) / z bit for bit);
 *   - lanes whose elimination factor is zero keep their row, as the
 *     scalar's `factor == 0` skip does.
 * Throws std::invalid_argument if any lane's pivot is not above
 * 1e-20, like the scalar solve.
 *
 * @p j is the first lane's index in the Gram tile, @p sc its
 * subcarrier.
 */
template <std::size_t N>
void
solve_lanes(const ChannelView &ch, const SplitSpan &gram, std::size_t j,
            std::size_t sc, float noise_var, CombinerWeights &out)
{
    using simd::cvf;
    using simd::vf;
    const vf zero = vf::zero();

    cvf a[N][N]{}, inv[N][N]{}; // inv: all +0, identity set below
    std::size_t idx = 0;
    for (std::size_t r = 0; r < N; ++r) {
        for (std::size_t c = r; c < N; ++c, ++idx) {
            const cvf v{vf::load(gram.re.data() + idx * kWeightsTile + j),
                        vf::load(gram.im.data() + idx * kWeightsTile + j)};
            a[r][c] = v;
            // std::conj flips the sign bit, of a zero too; 0 - x would
            // not.
            if (c != r)
                a[c][r] = {v.re, v.im * vf::set1(-1.0f)};
        }
    }
    for (std::size_t i = 0; i < N; ++i) {
        a[i][i] = a[i][i] + cvf{vf::set1(noise_var), zero};
        inv[i][i].re = vf::set1(1.0f);
    }

    for (std::size_t col = 0; col < N; ++col) {
        // pick[r]: the lanes whose pivot is row r (first strict max).
        vf best = simd::cabs(a[col][col]);
        vf pick[N]{};
        for (std::size_t r = col + 1; r < N; ++r) {
            const vf mag = simd::cabs(a[r][col]);
            pick[r] = simd::vgt(mag, best);
            best = simd::vselect(pick[r], mag, best);
            for (std::size_t q = col + 1; q < r; ++q)
                pick[q] = simd::vselect(pick[r], zero, pick[q]);
        }
        float best_lane[simd::kLanes];
        best.store(best_lane);
        for (const float b : best_lane)
            LTE_CHECK(b > 1e-20f, "matrix is singular");
        for (std::size_t r = col + 1; r < N; ++r) {
            for (std::size_t c = 0; c < N; ++c) {
                const cvf x = a[col][c], y = inv[col][c];
                a[col][c] = simd::cselect(pick[r], a[r][c], x);
                a[r][c] = simd::cselect(pick[r], x, a[r][c]);
                inv[col][c] = simd::cselect(pick[r], inv[r][c], y);
                inv[r][c] = simd::cselect(pick[r], y, inv[r][c]);
            }
        }

        const cvf scale = simd::crecip(a[col][col]);
        for (std::size_t c = 0; c < N; ++c) {
            a[col][c] = simd::cmul(a[col][c], scale);
            inv[col][c] = simd::cmul(inv[col][c], scale);
        }

        for (std::size_t r = 0; r < N; ++r) {
            if (r == col)
                continue;
            const cvf factor = a[r][col];
            const vf skip = simd::vselect(simd::veq(factor.re, zero),
                                          simd::veq(factor.im, zero), zero);
            for (std::size_t c = 0; c < N; ++c) {
                a[r][c] = simd::cselect(
                    skip, a[r][c],
                    a[r][c] - simd::cmul(factor, a[col][c]));
                inv[r][c] = simd::cselect(
                    skip, inv[r][c],
                    inv[r][c] - simd::cmul(factor, inv[col][c]));
            }
        }
    }

    // W(l, a) = sum_l2 inv(l, l2) * conj(H(a, l2)), stored straight
    // into the contiguous (l, a) weight plane.
    for (std::size_t l = 0; l < N; ++l) {
        for (std::size_t ant = 0; ant < ch.antennas; ++ant) {
            cvf acc = cvf::zero();
            for (std::size_t l2 = 0; l2 < N; ++l2) {
                const cvf h = simd::cload(&ch.at(ant, l2, sc));
                acc = acc + simd::cmul_conj(inv[l][l2], h);
            }
            simd::cstore(out.plane(l, ant) + sc, acc);
        }
    }
}

/**
 * Multi-layer MMSE weights: the Gram accumulation G = H^H H runs
 * vectorized across subcarriers into a split-complex tile carved from
 * the per-thread kernel scratch (upper triangle only; G is Hermitian),
 * then the add-noise / invert / W = G^-1 H^H solve runs kLanes
 * subcarriers at a time (solve_lanes).  Tail subcarriers solve one at a
 * time on FixedCMat stack matrices like the scalar twin.
 */
void
weights_simd_tiled(const ChannelView &ch, float noise_var,
                   CombinerWeights &out)
{
    const std::size_t layers = ch.layers;
    const std::size_t antennas = ch.antennas;
    const std::size_t n_pairs = layers * (layers + 1) / 2;
    const SplitSpan gram =
        as_split(kernel_scratch().first(n_pairs * kWeightsTile));

    for (std::size_t base = 0; base < ch.n_sc; base += kWeightsTile) {
        const std::size_t cnt =
            std::min(kWeightsTile, ch.n_sc - base);

        // Vectorized Gram: one (r, c) upper-triangle plane at a time,
        // each a conj-multiply-accumulate streamed across subcarriers.
        std::size_t idx = 0;
        for (std::size_t r = 0; r < layers; ++r) {
            for (std::size_t c = r; c < layers; ++c, ++idx) {
                float *gr = gram.re.data() + idx * kWeightsTile;
                float *gi = gram.im.data() + idx * kWeightsTile;
                std::size_t j = 0;
                for (; j + simd::kLanes <= cnt; j += simd::kLanes) {
                    simd::cvf acc = simd::cvf::zero();
                    for (std::size_t a = 0; a < antennas; ++a) {
                        const simd::cvf hr =
                            simd::cload(&ch.at(a, r, base + j));
                        const simd::cvf hc =
                            simd::cload(&ch.at(a, c, base + j));
                        // conj(h_r) * h_c
                        acc = acc + simd::cmul_conj(hc, hr);
                    }
                    acc.re.store(gr + j);
                    acc.im.store(gi + j);
                }
                for (; j < cnt; ++j) {
                    cf32 acc(0.0f, 0.0f);
                    for (std::size_t a = 0; a < antennas; ++a) {
                        acc += std::conj(ch.at(a, r, base + j)) *
                               ch.at(a, c, base + j);
                    }
                    gr[j] = acc.real();
                    gi[j] = acc.imag();
                }
            }
        }

        // Lane-parallel solve over the full vector blocks.
        const std::size_t vec_cnt = cnt - cnt % simd::kLanes;
        for (std::size_t j = 0; j < vec_cnt; j += simd::kLanes) {
            switch (layers) {
            case 2:
                solve_lanes<2>(ch, gram, j, base + j, noise_var, out);
                break;
            case 3:
                solve_lanes<3>(ch, gram, j, base + j, noise_var, out);
                break;
            default:
                solve_lanes<4>(ch, gram, j, base + j, noise_var, out);
                break;
            }
        }

        // Tail: per-subcarrier solve on the tiled Gram values.
        for (std::size_t j = vec_cnt; j < cnt; ++j) {
            const std::size_t sc = base + j;
            matrix::FixedCMat g(layers, layers);
            idx = 0;
            for (std::size_t r = 0; r < layers; ++r) {
                for (std::size_t c = r; c < layers; ++c, ++idx) {
                    const cf32 v(gram.re[idx * kWeightsTile + j],
                                 gram.im[idx * kWeightsTile + j]);
                    g.at(r, c) = v;
                    if (c != r)
                        g.at(c, r) = std::conj(v);
                }
            }
            const matrix::FixedCMat inv =
                g.add_scaled_identity(noise_var).inverse();
            for (std::size_t l = 0; l < layers; ++l) {
                for (std::size_t a = 0; a < antennas; ++a) {
                    cf32 acc(0.0f, 0.0f);
                    for (std::size_t l2 = 0; l2 < layers; ++l2) {
                        acc += inv.at(l, l2) *
                               std::conj(ch.at(a, l2, sc));
                    }
                    out(sc, l, a) = acc;
                }
            }
        }
    }
}

#endif // LTE_SIMD_ENABLED

void
check_channel_view(const ChannelView &channel, float noise_var)
{
    LTE_CHECK(channel.data != nullptr && channel.antennas >= 1 &&
                  channel.layers >= 1,
              "need at least one antenna and layer");
    LTE_CHECK(noise_var > 0.0f, "noise variance must be positive");
}

} // namespace

void
compute_combiner_weights_scalar_into(const ChannelView &channel,
                                     float noise_var,
                                     CombinerWeights &out)
{
    check_channel_view(channel, noise_var);
    const std::size_t antennas = channel.antennas;
    const std::size_t layers = channel.layers;
    out.resize(channel.n_sc, layers, antennas);
    // The per-subcarrier MMSE solve, entirely on fixed-capacity stack
    // matrices: no heap traffic per subcarrier.
    matrix::FixedCMat h(antennas, layers);
    for (std::size_t sc = 0; sc < channel.n_sc; ++sc) {
        for (std::size_t a = 0; a < antennas; ++a) {
            for (std::size_t l = 0; l < layers; ++l)
                h.at(a, l) = channel.at(a, l, sc);
        }
        const matrix::FixedCMat hh = h.hermitian();
        const matrix::FixedCMat w =
            hh.mul(h).add_scaled_identity(noise_var).inverse().mul(hh);
        for (std::size_t l = 0; l < layers; ++l) {
            for (std::size_t a = 0; a < antennas; ++a)
                out(sc, l, a) = w.at(l, a);
        }
    }
}

void
compute_mrc_weights_into(const ChannelView &channel, float noise_var,
                         CombinerWeights &out)
{
    check_channel_view(channel, noise_var);
    out.resize(channel.n_sc, channel.layers, channel.antennas);
    // Per-layer matched filter: W(sc,l,a) = H*(a,l,sc) / (||H_l||^2 +
    // sigma^2).  No layers x layers inverse, so inter-layer
    // interference is ignored — the deliberate accuracy trade of the
    // streaming engine's degrade shed policy.  Plain scalar loops: the
    // point of this path is to be cheap, not vectorised.
    for (std::size_t l = 0; l < channel.layers; ++l) {
        for (std::size_t sc = 0; sc < channel.n_sc; ++sc) {
            float gain = 0.0f;
            for (std::size_t a = 0; a < channel.antennas; ++a) {
                const cf32 h = channel.at(a, l, sc);
                gain += h.real() * h.real() + h.imag() * h.imag();
            }
            const float denom = gain + noise_var;
            for (std::size_t a = 0; a < channel.antennas; ++a)
                out(sc, l, a) = std::conj(channel.at(a, l, sc)) / denom;
        }
    }
}

void
compute_combiner_weights_into(const ChannelView &channel, float noise_var,
                              CombinerWeights &out)
{
#if defined(LTE_SIMD_ENABLED)
    check_channel_view(channel, noise_var);
    LTE_CHECK(channel.antennas <= matrix::FixedCMat::kMaxDim &&
                  channel.layers <= matrix::FixedCMat::kMaxDim,
              "channel dimensions exceed FixedCMat capacity");
    out.resize(channel.n_sc, channel.layers, channel.antennas);
    if (channel.layers == 1)
        weights_simd_single_layer(channel, noise_var, out);
    else
        weights_simd_tiled(channel, noise_var, out);
#else
    compute_combiner_weights_scalar_into(channel, noise_var, out);
#endif
}

namespace {

void
check_combine_args(std::span<const CfView> rx_symbol,
                   const CombinerWeights &weights, std::size_t layer,
                   CfSpan out)
{
    LTE_CHECK(rx_symbol.size() == weights.antennas(),
              "antenna count mismatch");
    LTE_CHECK(layer < weights.layers(), "layer out of range");
    const std::size_t n_sc = weights.n_subcarriers();
    LTE_CHECK(out.size() == n_sc, "output length mismatch");
    for (const auto &ant : rx_symbol)
        LTE_CHECK(ant.size() == n_sc, "subcarrier count mismatch");
}

} // namespace

void
combine_layer_scalar_into(std::span<const CfView> rx_symbol,
                          const CombinerWeights &weights,
                          std::size_t layer, CfSpan out)
{
    check_combine_args(rx_symbol, weights, layer, out);
    const std::size_t n_sc = weights.n_subcarriers();

    for (std::size_t sc = 0; sc < n_sc; ++sc)
        out[sc] = cf32(0.0f, 0.0f);
    for (std::size_t a = 0; a < rx_symbol.size(); ++a) {
        const cf32 *y = rx_symbol[a].data();
        for (std::size_t sc = 0; sc < n_sc; ++sc)
            out[sc] += weights(sc, layer, a) * y[sc];
    }
}

void
combine_layer_into(std::span<const CfView> rx_symbol,
                   const CombinerWeights &weights, std::size_t layer,
                   CfSpan out)
{
#if defined(LTE_SIMD_ENABLED)
    check_combine_args(rx_symbol, weights, layer, out);
    const std::size_t n_sc = weights.n_subcarriers();
    const std::size_t antennas = rx_symbol.size();

    std::size_t sc = 0;
    for (; sc + simd::kLanes <= n_sc; sc += simd::kLanes) {
        simd::cvf acc = simd::cvf::zero();
        for (std::size_t a = 0; a < antennas; ++a) {
            const simd::cvf w =
                simd::cload(weights.plane(layer, a) + sc);
            const simd::cvf y = simd::cload(rx_symbol[a].data() + sc);
            acc = acc + simd::cmul(w, y);
        }
        simd::cstore(out.data() + sc, acc);
    }
    for (; sc < n_sc; ++sc) {
        cf32 acc(0.0f, 0.0f);
        for (std::size_t a = 0; a < antennas; ++a)
            acc += weights(sc, layer, a) * rx_symbol[a][sc];
        out[sc] = acc;
    }
#else
    combine_layer_scalar_into(rx_symbol, weights, layer, out);
#endif
}

void
apply_mmse_bias_scalar_into(const ChannelView &channel,
                            const CombinerWeights &weights,
                            std::size_t layer, CfSpan combined)
{
    LTE_CHECK(combined.size() == weights.n_subcarriers(),
              "combined length mismatch");
    for (std::size_t sc = 0; sc < combined.size(); ++sc) {
        cf32 bias(0.0f, 0.0f);
        for (std::size_t a = 0; a < channel.antennas; ++a)
            bias += weights(sc, layer, a) * channel.at(a, layer, sc);
        if (std::norm(bias) > 1e-12f)
            combined[sc] /= bias;
    }
}

void
apply_mmse_bias_into(const ChannelView &channel,
                     const CombinerWeights &weights, std::size_t layer,
                     CfSpan combined)
{
#if defined(LTE_SIMD_ENABLED)
    LTE_CHECK(combined.size() == weights.n_subcarriers(),
              "combined length mismatch");
    const std::size_t n_sc = combined.size();
    const std::size_t antennas = channel.antennas;
    const simd::vf threshold = simd::vf::set1(1e-12f);
    const simd::vf tiny = simd::vf::set1(1e-30f);
    const simd::vf one = simd::vf::set1(1.0f);

    std::size_t sc = 0;
    for (; sc + simd::kLanes <= n_sc; sc += simd::kLanes) {
        simd::cvf bias = simd::cvf::zero();
        for (std::size_t a = 0; a < antennas; ++a) {
            const simd::cvf w =
                simd::cload(weights.plane(layer, a) + sc);
            const simd::cvf h =
                simd::cload(&channel.at(a, layer, sc));
            bias = bias + simd::cmul(w, h);
        }
        const simd::cvf c = simd::cload(combined.data() + sc);
        const simd::vf n2 = simd::cnorm(bias);
        const simd::vf mask = simd::vgt(n2, threshold);
        // c / bias = c * conj(bias) / |bias|^2; the vmax keeps the
        // masked-off lanes away from a 0/0 NaN.
        const simd::vf inv = one / simd::vmax(n2, tiny);
        const simd::cvf corrected =
            simd::cscale(simd::cmul_conj(c, bias), inv);
        simd::cstore(combined.data() + sc, simd::cselect(mask, corrected, c));
    }
    // The remainder repeats a lane's arithmetic in its order, so a
    // subcarrier rounds the same at every vector width.
    for (; sc < n_sc; ++sc) {
        cf32 bias(0.0f, 0.0f);
        for (std::size_t a = 0; a < antennas; ++a)
            bias += weights(sc, layer, a) * channel.at(a, layer, sc);
        const float br = bias.real(), bi = bias.imag();
        const float n2 = br * br + bi * bi;
        if (n2 > 1e-12f) {
            const float inv = 1.0f / std::max(n2, 1e-30f);
            const cf32 c = combined[sc];
            combined[sc] = cf32((c.real() * br + c.imag() * bi) * inv,
                                (c.imag() * br - c.real() * bi) * inv);
        }
    }
#else
    apply_mmse_bias_scalar_into(channel, weights, layer, combined);
#endif
}

} // namespace lte::phy
