#include "phy/modulation.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "simd/complex.hpp"

namespace lte::phy {

namespace {

/**
 * Per-axis amplitude from the bits controlling that axis, per
 * TS 36.211: the first bit selects the sign, later bits select the
 * magnitude ring, Gray coded.
 */
float
axis_16qam(std::uint8_t sign_bit, std::uint8_t mag_bit)
{
    const float sign = sign_bit ? -1.0f : 1.0f;
    const float mag = mag_bit ? 3.0f : 1.0f;
    return sign * mag / std::sqrt(10.0f);
}

float
axis_64qam(std::uint8_t sign_bit, std::uint8_t b1, std::uint8_t b2)
{
    const float sign = sign_bit ? -1.0f : 1.0f;
    // Gray ladder: (b1, b2) = 00 -> 3, 01 -> 1, 10 -> 5, 11 -> 7.
    float mag;
    if (!b1)
        mag = b2 ? 1.0f : 3.0f;
    else
        mag = b2 ? 7.0f : 5.0f;
    return sign * mag / std::sqrt(42.0f);
}

cf32
map_symbol(const std::uint8_t *b, Modulation mod)
{
    switch (mod) {
      case Modulation::kQpsk: {
        const float a = 1.0f / std::sqrt(2.0f);
        return cf32(b[0] ? -a : a, b[1] ? -a : a);
      }
      case Modulation::k16Qam:
        return cf32(axis_16qam(b[0], b[2]), axis_16qam(b[1], b[3]));
      case Modulation::k64Qam:
        return cf32(axis_64qam(b[0], b[2], b[4]),
                    axis_64qam(b[1], b[3], b[5]));
    }
    return cf32(0.0f, 0.0f);
}

CVec
build_constellation(Modulation mod)
{
    const std::size_t bps = bits_per_symbol(mod);
    const std::size_t points = std::size_t{1} << bps;
    CVec table(points);
    for (std::size_t v = 0; v < points; ++v) {
        std::uint8_t bits[6] = {};
        for (std::size_t i = 0; i < bps; ++i)
            bits[i] = static_cast<std::uint8_t>((v >> (bps - 1 - i)) & 1);
        table[v] = map_symbol(bits, mod);
    }
    return table;
}

/**
 * Per-axis level table: the amplitude for every pattern of the bits
 * controlling one axis (I bits are the even global positions, Q bits
 * the odd ones; pattern bit 0 is the earliest global bit).
 */
struct AxisTable
{
    std::size_t n_bits = 1;      ///< bits per axis
    std::vector<float> levels;   ///< amplitude per pattern (size 2^n)
};

AxisTable
build_axis_table(Modulation mod)
{
    AxisTable table;
    table.n_bits = bits_per_symbol(mod) / 2;
    const std::size_t patterns = std::size_t{1} << table.n_bits;
    table.levels.resize(patterns);
    for (std::size_t p = 0; p < patterns; ++p) {
        const auto b0 = static_cast<std::uint8_t>(p & 1);
        const auto b1 = static_cast<std::uint8_t>((p >> 1) & 1);
        const auto b2 = static_cast<std::uint8_t>((p >> 2) & 1);
        switch (mod) {
          case Modulation::kQpsk:
            table.levels[p] = b0 ? -1.0f / std::sqrt(2.0f)
                                 : 1.0f / std::sqrt(2.0f);
            break;
          case Modulation::k16Qam:
            table.levels[p] = axis_16qam(b0, b1);
            break;
          case Modulation::k64Qam:
            table.levels[p] = axis_64qam(b0, b1, b2);
            break;
        }
    }
    return table;
}

const AxisTable &
axis_table(Modulation mod)
{
    static const AxisTable qpsk = build_axis_table(Modulation::kQpsk);
    static const AxisTable qam16 = build_axis_table(Modulation::k16Qam);
    static const AxisTable qam64 = build_axis_table(Modulation::k64Qam);
    switch (mod) {
      case Modulation::kQpsk: return qpsk;
      case Modulation::k16Qam: return qam16;
      case Modulation::k64Qam: return qam64;
    }
    return qpsk;
}

} // namespace

const CVec &
constellation(Modulation mod)
{
    static const CVec qpsk = build_constellation(Modulation::kQpsk);
    static const CVec qam16 = build_constellation(Modulation::k16Qam);
    static const CVec qam64 = build_constellation(Modulation::k64Qam);
    switch (mod) {
      case Modulation::kQpsk: return qpsk;
      case Modulation::k16Qam: return qam16;
      case Modulation::k64Qam: return qam64;
    }
    return qpsk;
}

CVec
modulate(const std::vector<std::uint8_t> &bits, Modulation mod)
{
    const std::size_t bps = bits_per_symbol(mod);
    LTE_CHECK(bits.size() % bps == 0,
              "bit count must be a multiple of bits per symbol");
    CVec out(bits.size() / bps);
    for (std::size_t s = 0; s < out.size(); ++s)
        out[s] = map_symbol(bits.data() + s * bps, mod);
    return out;
}

namespace {

/** Clamp the demapper noise variance to the documented floor.  The
 *  negated comparison also routes NaN to the floor. */
float
clamp_noise_var(float noise_var)
{
    return noise_var > kDemodNoiseFloor ? noise_var : kDemodNoiseFloor;
}

/**
 * Demap one symbol: bits_per_symbol LLRs written to @p out.  Global
 * bit k lives on axis k % 2 as axis bit k / 2; the cross-axis distance
 * cancels in best1 - best0, so each axis is demapped independently.
 * Shared by the scalar reference loop and the SIMD kernel's tail so
 * tail lanes are bit-identical to the reference.
 */
inline void
demap_symbol(const AxisTable &table, cf32 y, float inv_nv, Llr *out)
{
    const std::size_t patterns = table.levels.size();
    // Axis patterns are at most 8 (64-QAM: 3 bits per axis).
    float dist[8];
    for (int axis = 0; axis < 2; ++axis) {
        const float v = axis == 0 ? y.real() : y.imag();
        for (std::size_t p = 0; p < patterns; ++p) {
            const float d = v - table.levels[p];
            dist[p] = d * d;
        }
        for (std::size_t bit = 0; bit < table.n_bits; ++bit) {
            float best0 = std::numeric_limits<float>::max();
            float best1 = std::numeric_limits<float>::max();
            for (std::size_t p = 0; p < patterns; ++p) {
                if ((p >> bit) & 1)
                    best1 = std::min(best1, dist[p]);
                else
                    best0 = std::min(best0, dist[p]);
            }
            out[2 * bit + axis] = (best1 - best0) * inv_nv;
        }
    }
}

#if defined(LTE_SIMD_ENABLED)

/**
 * Vectorized max-log demapper: one symbol per SIMD lane, the same
 * distance/min arithmetic as demap_symbol in every lane.  Outputs are
 * produced bit-major (one vector per LLR position) and transposed to
 * the symbol-major LLR layout on store; QPSK's two positions are a
 * plain interleave.  The sub-kLanes tail falls back to demap_symbol.
 */
template <std::size_t kBps>
void
demap_simd(CfView symbols, const AxisTable &table, float inv_nv,
           LlrSpan llrs)
{
    constexpr std::size_t n_bits = kBps / 2;
    constexpr std::size_t patterns = std::size_t{1} << n_bits;

    simd::vf levels[patterns];
    for (std::size_t p = 0; p < patterns; ++p)
        levels[p] = simd::vf::set1(table.levels[p]);
    const simd::vf inv = simd::vf::set1(inv_nv);
    const simd::vf flt_max =
        simd::vf::set1(std::numeric_limits<float>::max());

    const std::size_t n = symbols.size();
    std::size_t s = 0;
    for (; s + simd::kLanes <= n; s += simd::kLanes) {
        const simd::cvf y = simd::cload(symbols.data() + s);
        simd::vf out[kBps];
        for (int axis = 0; axis < 2; ++axis) {
            const simd::vf v = axis == 0 ? y.re : y.im;
            simd::vf dist[patterns];
            for (std::size_t p = 0; p < patterns; ++p) {
                const simd::vf d = v - levels[p];
                dist[p] = d * d;
            }
            for (std::size_t bit = 0; bit < n_bits; ++bit) {
                simd::vf best0 = flt_max;
                simd::vf best1 = flt_max;
                for (std::size_t p = 0; p < patterns; ++p) {
                    if ((p >> bit) & 1)
                        best1 = simd::vmin(best1, dist[p]);
                    else
                        best0 = simd::vmin(best0, dist[p]);
                }
                out[2 * bit + axis] = (best1 - best0) * inv;
            }
        }
        float *dst = llrs.data() + s * kBps;
        if constexpr (kBps == 2) {
            simd::store_interleaved2(dst, out[0], out[1]);
        } else {
            float buf[kBps][simd::kLanes];
            for (std::size_t k = 0; k < kBps; ++k)
                out[k].store(buf[k]);
            for (std::size_t j = 0; j < simd::kLanes; ++j) {
                for (std::size_t k = 0; k < kBps; ++k)
                    dst[j * kBps + k] = buf[k][j];
            }
        }
    }
    for (; s < n; ++s)
        demap_symbol(table, symbols[s], inv_nv, llrs.data() + s * kBps);
}

#endif // LTE_SIMD_ENABLED

} // namespace

void
demodulate_soft_scalar_into(CfView symbols, Modulation mod,
                            float noise_var, LlrSpan llrs)
{
    const std::size_t bps = bits_per_symbol(mod);
    LTE_CHECK(llrs.size() == symbols.size() * bps,
              "LLR buffer length mismatch");
    const AxisTable &table = axis_table(mod);
    const float inv_nv = 1.0f / clamp_noise_var(noise_var);
    for (std::size_t s = 0; s < symbols.size(); ++s)
        demap_symbol(table, symbols[s], inv_nv, llrs.data() + s * bps);
}

void
demodulate_soft_into(CfView symbols, Modulation mod, float noise_var,
                     LlrSpan llrs)
{
#if defined(LTE_SIMD_ENABLED)
    const std::size_t bps = bits_per_symbol(mod);
    LTE_CHECK(llrs.size() == symbols.size() * bps,
              "LLR buffer length mismatch");
    const AxisTable &table = axis_table(mod);
    const float inv_nv = 1.0f / clamp_noise_var(noise_var);
    switch (mod) {
      case Modulation::kQpsk:
        demap_simd<2>(symbols, table, inv_nv, llrs);
        break;
      case Modulation::k16Qam:
        demap_simd<4>(symbols, table, inv_nv, llrs);
        break;
      case Modulation::k64Qam:
        demap_simd<6>(symbols, table, inv_nv, llrs);
        break;
    }
#else
    demodulate_soft_scalar_into(symbols, mod, noise_var, llrs);
#endif
}

float
nearest_point_distance2(cf32 y, Modulation mod)
{
    const AxisTable &table = axis_table(mod);
    float best_i = std::numeric_limits<float>::max();
    float best_q = std::numeric_limits<float>::max();
    for (float level : table.levels) {
        const float di = y.real() - level;
        const float dq = y.imag() - level;
        best_i = std::min(best_i, di * di);
        best_q = std::min(best_q, dq * dq);
    }
    return best_i + best_q;
}

namespace {

/** One axis of nearest_point_distance2 with the levels hoisted: the
 *  same expressions in the same level order. */
template <std::size_t kPatterns>
float
axis_distance2(const float (&levels)[kPatterns], float v)
{
    float best = std::numeric_limits<float>::max();
    for (std::size_t p = 0; p < kPatterns; ++p) {
        const float d = v - levels[p];
        best = std::min(best, d * d);
    }
    return best;
}

#if defined(LTE_SIMD_ENABLED)

/** Lane-wise std::min(best, d): keeps best when d is NaN on every
 *  backend (a bare vmin follows each ISA's own NaN rule). */
inline simd::vf
min_keep(simd::vf best, simd::vf d)
{
    return simd::vselect(simd::vgt(best, d), d, best);
}

#endif // LTE_SIMD_ENABLED

template <std::size_t kPatterns>
double
accumulate_distance2(CfView symbols, const AxisTable &table, double acc)
{
    float levels[kPatterns];
    for (std::size_t p = 0; p < kPatterns; ++p)
        levels[p] = table.levels[p];

    const std::size_t n = symbols.size();
    std::size_t s = 0;
#if defined(LTE_SIMD_ENABLED)
    simd::vf lv[kPatterns];
    for (std::size_t p = 0; p < kPatterns; ++p)
        lv[p] = simd::vf::set1(levels[p]);
    const simd::vf flt_max =
        simd::vf::set1(std::numeric_limits<float>::max());
    for (; s + simd::kLanes <= n; s += simd::kLanes) {
        const simd::cvf y = simd::cload(symbols.data() + s);
        simd::vf best_i = flt_max;
        simd::vf best_q = flt_max;
        for (std::size_t p = 0; p < kPatterns; ++p) {
            const simd::vf di = y.re - lv[p];
            const simd::vf dq = y.im - lv[p];
            best_i = min_keep(best_i, di * di);
            best_q = min_keep(best_q, dq * dq);
        }
        float dist[simd::kLanes];
        (best_i + best_q).store(dist);
        // The running sum stays serial: lane order is symbol order.
        for (std::size_t j = 0; j < simd::kLanes; ++j)
            acc += dist[j];
    }
#endif
    for (; s < n; ++s) {
        acc += axis_distance2(levels, symbols[s].real()) +
               axis_distance2(levels, symbols[s].imag());
    }
    return acc;
}

} // namespace

double
accumulate_nearest_distance2(CfView symbols, Modulation mod, double acc)
{
    const AxisTable &table = axis_table(mod);
    switch (mod) {
      case Modulation::kQpsk:
        return accumulate_distance2<2>(symbols, table, acc);
      case Modulation::k16Qam:
        return accumulate_distance2<4>(symbols, table, acc);
      case Modulation::k64Qam:
        return accumulate_distance2<8>(symbols, table, acc);
    }
    return acc;
}

void
hard_decision_into(LlrView llrs, BitSpan out)
{
    LTE_CHECK(out.size() == llrs.size(), "bit buffer length mismatch");
    for (std::size_t i = 0; i < llrs.size(); ++i)
        out[i] = llrs[i] >= 0.0f ? 0 : 1;
}

} // namespace lte::phy
