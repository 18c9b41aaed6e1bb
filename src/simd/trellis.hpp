/**
 * @file
 * 8-lane metric vectors for the LTE turbo trellis, built on the same
 * backend selection as `simd::vf`.
 *
 * The max-log-MAP recursions update one metric per trellis state; the
 * LTE constituent code has exactly 8 states.  The decoder's hot type
 * is `v8s` — eight saturating 16-bit metrics in a single SSE register
 * (fixed-point decode, DESIGN.md Sec. 3h): saturating add/subtract
 * and 8-lane max are one instruction each, which is precisely the
 * arithmetic a portable scalar implementation has to emulate with
 * explicit clamping.
 * Besides the lane-wise arithmetic, the recursions need three fixed
 * cross-lane permutations (DESIGN.md Sec. 3h):
 *
 *  - dup_low_pairs / dup_high_pairs: alpha_next[s'] draws from the two
 *    predecessors s'>>1 and (s'>>1)+4, i.e. lanes [0,0,1,1,2,2,3,3]
 *    and [4,4,5,5,6,6,7,7];
 *  - perm_next0 / perm_next1: beta[s] draws from the successor under
 *    input 0 (lanes [0,2,5,7,1,3,4,6]) and input 1 (the same table
 *    with the low bit flipped, [1,3,4,6,0,2,5,7]).
 *
 * `dup_lane0` (broadcast state 0) feeds the periodic metric
 * renormalization: subtracting lane 0 keeps the column bounded without
 * putting a horizontal reduction on the recursion's serial dependency
 * chain — `hmax` is only needed for the LLR outputs.
 * `load_fwd_metrics` / `load_bwd_metrics` expand one precomputed
 * branch-metric row [A, -A, B, -B] into the signed per-lane metric
 * vectors of the forward and backward updates, so the recursion loops
 * perform no arithmetic to build metrics — just a load and a shuffle
 * off the critical path.
 * Every operation is an exact lane selection or the same saturating
 * add/subtract (`sat16`) the scalar twin performs, so scalar and SIMD
 * decodes are bit-identical (tests/test_turbo.cpp parity suite).
 */
#ifndef LTE_SIMD_TRELLIS_HPP
#define LTE_SIMD_TRELLIS_HPP

#include <cstddef>
#include <cstdint>

#include "simd/simd.hpp"

namespace lte::simd {

// ---------------------------------------------------------------------------
// v8s: eight saturating int16 metrics — the fixed-point decode column.
//
// Branch metrics are quantized to a per-pass adaptive Q (turbo.cpp) so
// one state metric fits 16 bits between renormalizations; adds/subs
// saturate instead of wrapping, which is a single instruction per
// column in SIMD (PADDSW/PSUBSW/PMAXSW) while the scalar twin emulates
// it with an explicit clamp (`sat16`) per operation — the asymmetry
// that makes the vectorized decoder profitable.
// ---------------------------------------------------------------------------

/** Saturating 16-bit clamp: the scalar semantics of adds/subs.  Shared
 *  with the decoder's scalar twin so both paths saturate identically. */
inline std::int16_t
sat16(int x)
{
    return static_cast<std::int16_t>(x > 32767 ? 32767
                                                : (x < -32768 ? -32768 : x));
}

#if defined(LTE_SIMD_BACKEND_AVX2) || defined(LTE_SIMD_BACKEND_SSE2)

/** One int16 per trellis state; AVX2 and SSE2 builds share this
 *  definition — the whole column is 128 bits either way. */
struct v8s
{
    __m128i raw;

    static v8s
    load(const std::int16_t *p)
    {
        return {_mm_loadu_si128(reinterpret_cast<const __m128i *>(p))};
    }
    void
    store(std::int16_t *p) const
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), raw);
    }
};

inline v8s adds(v8s a, v8s b) { return {_mm_adds_epi16(a.raw, b.raw)}; }
inline v8s subs(v8s a, v8s b) { return {_mm_subs_epi16(a.raw, b.raw)}; }
inline v8s v8smax(v8s a, v8s b) { return {_mm_max_epi16(a.raw, b.raw)}; }

inline v8s
dup_low_pairs(v8s x)
{
    return {_mm_unpacklo_epi16(x.raw, x.raw)};
}

inline v8s
dup_high_pairs(v8s x)
{
    return {_mm_unpackhi_epi16(x.raw, x.raw)};
}

inline v8s
perm_next0(v8s x)
{
    // Lanes [0,2,5,7,1,3,4,6] via two in-half word shuffles and one
    // dword shuffle (no PSHUFB dependency: pure SSE2).
    __m128i r = _mm_shufflelo_epi16(x.raw, _MM_SHUFFLE(3, 1, 2, 0));
    r = _mm_shufflehi_epi16(r, _MM_SHUFFLE(2, 0, 3, 1));
    return {_mm_shuffle_epi32(r, _MM_SHUFFLE(3, 1, 2, 0))};
}

inline v8s
perm_next1(v8s x)
{
    // Lanes [1,3,4,6,0,2,5,7].
    __m128i r = _mm_shufflelo_epi16(x.raw, _MM_SHUFFLE(2, 0, 3, 1));
    r = _mm_shufflehi_epi16(r, _MM_SHUFFLE(3, 1, 2, 0));
    return {_mm_shuffle_epi32(r, _MM_SHUFFLE(3, 1, 2, 0))};
}

inline std::int16_t
hmax(v8s x)
{
    __m128i m = _mm_max_epi16(x.raw, _mm_srli_si128(x.raw, 8));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
    return static_cast<std::int16_t>(_mm_cvtsi128_si32(m));
}

inline v8s
dup_lane0(v8s x)
{
    return {_mm_shuffle_epi32(_mm_shufflelo_epi16(x.raw, 0), 0)};
}

inline v8s
load_fwd_metrics(const std::int16_t *row)
{
    const __m128i r =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(row));
    const __m128i rev = _mm_shufflelo_epi16(r, _MM_SHUFFLE(0, 1, 2, 3));
    return {_mm_unpacklo_epi64(r, rev)};
}

inline v8s
load_bwd_metrics(const std::int16_t *row)
{
    const __m128i r =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(row));
    const __m128i g = _mm_shufflelo_epi16(r, _MM_SHUFFLE(0, 2, 2, 0));
    return {_mm_unpacklo_epi64(g, g)};
}

#else // NEON and scalar builds: plain lanes with emulated saturation

/** One int16 per trellis state on NEON/scalar builds; arithmetic
 *  saturates through `sat16` so results match the x86 backends. */
struct v8s
{
    std::int16_t raw[8];

    static v8s
    load(const std::int16_t *p)
    {
        v8s r;
        for (std::size_t i = 0; i < 8; ++i)
            r.raw[i] = p[i];
        return r;
    }
    void
    store(std::int16_t *p) const
    {
        for (std::size_t i = 0; i < 8; ++i)
            p[i] = raw[i];
    }
};

#  define LTE_SIMD_V8S_OP(name, expr)                                        \
      inline v8s name(v8s a, v8s b)                                          \
      {                                                                      \
          v8s r;                                                             \
          for (std::size_t i = 0; i < 8; ++i)                                \
              r.raw[i] = (expr);                                             \
          return r;                                                          \
      }
LTE_SIMD_V8S_OP(adds, sat16(int(a.raw[i]) + int(b.raw[i])))
LTE_SIMD_V8S_OP(subs, sat16(int(a.raw[i]) - int(b.raw[i])))
LTE_SIMD_V8S_OP(v8smax, a.raw[i] > b.raw[i] ? a.raw[i] : b.raw[i])
#  undef LTE_SIMD_V8S_OP

inline v8s
permute8(v8s x, const int (&idx)[8])
{
    v8s r;
    for (std::size_t i = 0; i < 8; ++i)
        r.raw[i] = x.raw[idx[i]];
    return r;
}

inline v8s
dup_low_pairs(v8s x)
{
    static constexpr int idx[8] = {0, 0, 1, 1, 2, 2, 3, 3};
    return permute8(x, idx);
}

inline v8s
dup_high_pairs(v8s x)
{
    static constexpr int idx[8] = {4, 4, 5, 5, 6, 6, 7, 7};
    return permute8(x, idx);
}

inline v8s
perm_next0(v8s x)
{
    static constexpr int idx[8] = {0, 2, 5, 7, 1, 3, 4, 6};
    return permute8(x, idx);
}

inline v8s
perm_next1(v8s x)
{
    static constexpr int idx[8] = {1, 3, 4, 6, 0, 2, 5, 7};
    return permute8(x, idx);
}

inline std::int16_t
hmax(v8s x)
{
    std::int16_t m = x.raw[0];
    for (std::size_t i = 1; i < 8; ++i)
        m = x.raw[i] > m ? x.raw[i] : m;
    return m;
}

inline v8s
dup_lane0(v8s x)
{
    v8s r;
    for (std::size_t i = 0; i < 8; ++i)
        r.raw[i] = x.raw[0];
    return r;
}

inline v8s
load_fwd_metrics(const std::int16_t *row)
{
    v8s r;
    for (std::size_t i = 0; i < 4; ++i) {
        r.raw[i] = row[i];
        r.raw[4 + i] = row[3 - i];
    }
    return r;
}

inline v8s
load_bwd_metrics(const std::int16_t *row)
{
    v8s r;
    static constexpr int idx[8] = {0, 2, 2, 0, 0, 2, 2, 0};
    for (std::size_t i = 0; i < 8; ++i)
        r.raw[i] = row[idx[i]];
    return r;
}

#endif

} // namespace lte::simd

#endif // LTE_SIMD_TRELLIS_HPP
