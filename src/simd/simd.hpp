/**
 * @file
 * Portable fixed-width SIMD layer for the subframe hot kernels.
 *
 * The abstraction is a small value type `vf` holding kLanes floats plus
 * a split-complex pair `cvf` (separate real/imaginary vectors), with
 * free functions for the handful of operations the DSP kernels need:
 * load/store (including complex deinterleave/interleave and strided
 * twiddle gathers), arithmetic, min/max, compare-and-select.
 *
 * Backend selection is compile time:
 *   - LTE_SIMD=OFF (no LTE_SIMD_ENABLED define): kernels keep their
 *     original scalar loops; this header still compiles (scalar
 *     backend) so tests and benches build in every configuration.
 *   - LTE_SIMD=ON: picks AVX2 (8 lanes), SSE2 (4 lanes) or NEON
 *     (4 lanes) from the compiler's target macros, falling back to a
 *     4-lane scalar struct the auto-vectorizer handles well.
 *
 * Tail policy: kernels process floor(n / kLanes) * kLanes elements in
 * vector blocks and finish with their scalar reference twin, so tail
 * lanes are bit-identical to the scalar implementation by construction.
 */
#ifndef LTE_SIMD_SIMD_HPP
#define LTE_SIMD_SIMD_HPP

#include <cstddef>

#include "common/types.hpp"

#if defined(LTE_SIMD_ENABLED)
#  if defined(__AVX2__)
#    define LTE_SIMD_BACKEND_AVX2 1
#  elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#    define LTE_SIMD_BACKEND_SSE2 1
#  elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#    define LTE_SIMD_BACKEND_NEON 1
#  else
#    define LTE_SIMD_BACKEND_SCALAR 1
#  endif
#else
#  define LTE_SIMD_BACKEND_SCALAR 1
#endif

#if defined(LTE_SIMD_BACKEND_AVX2) || defined(LTE_SIMD_BACKEND_SSE2)
#  include <immintrin.h>
#elif defined(LTE_SIMD_BACKEND_NEON)
#  include <arm_neon.h>
#endif

namespace lte::simd {

#if defined(LTE_SIMD_BACKEND_AVX2)
inline constexpr std::size_t kLanes = 8;
#else
inline constexpr std::size_t kLanes = 4;
#endif

/** Human-readable backend name (study/bench metadata). */
constexpr const char *
backend_name()
{
#if defined(LTE_SIMD_BACKEND_AVX2)
    return "avx2";
#elif defined(LTE_SIMD_BACKEND_SSE2)
    return "sse2";
#elif defined(LTE_SIMD_BACKEND_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

/** True when the library was built with LTE_SIMD=ON. */
constexpr bool
enabled()
{
#if defined(LTE_SIMD_ENABLED)
    return true;
#else
    return false;
#endif
}

// ---------------------------------------------------------------------------
// vf: kLanes packed floats
// ---------------------------------------------------------------------------

#if defined(LTE_SIMD_BACKEND_AVX2)

struct vf
{
    __m256 raw;

    static vf zero() { return {_mm256_setzero_ps()}; }
    static vf set1(float x) { return {_mm256_set1_ps(x)}; }
    static vf load(const float *p) { return {_mm256_loadu_ps(p)}; }
    void store(float *p) const { _mm256_storeu_ps(p, raw); }
};

inline vf operator+(vf a, vf b) { return {_mm256_add_ps(a.raw, b.raw)}; }
inline vf operator-(vf a, vf b) { return {_mm256_sub_ps(a.raw, b.raw)}; }
inline vf operator*(vf a, vf b) { return {_mm256_mul_ps(a.raw, b.raw)}; }
inline vf operator/(vf a, vf b) { return {_mm256_div_ps(a.raw, b.raw)}; }
inline vf vmin(vf a, vf b) { return {_mm256_min_ps(a.raw, b.raw)}; }
inline vf vmax(vf a, vf b) { return {_mm256_max_ps(a.raw, b.raw)}; }
inline vf vneg(vf a) { return {_mm256_sub_ps(_mm256_setzero_ps(), a.raw)}; }

/** Lane mask: a > b ? all-ones : zero. */
inline vf vgt(vf a, vf b) { return {_mm256_cmp_ps(a.raw, b.raw, _CMP_GT_OQ)}; }
/** Lane mask: a == b ? all-ones : zero (false on NaN; -0 == +0). */
inline vf veq(vf a, vf b) { return {_mm256_cmp_ps(a.raw, b.raw, _CMP_EQ_OQ)}; }
/** Per-lane select: mask ? a : b (mask lanes all-ones/zero). */
inline vf
vselect(vf mask, vf a, vf b)
{
    return {_mm256_blendv_ps(b.raw, a.raw, mask.raw)};
}

#elif defined(LTE_SIMD_BACKEND_SSE2)

struct vf
{
    __m128 raw;

    static vf zero() { return {_mm_setzero_ps()}; }
    static vf set1(float x) { return {_mm_set1_ps(x)}; }
    static vf load(const float *p) { return {_mm_loadu_ps(p)}; }
    void store(float *p) const { _mm_storeu_ps(p, raw); }
};

inline vf operator+(vf a, vf b) { return {_mm_add_ps(a.raw, b.raw)}; }
inline vf operator-(vf a, vf b) { return {_mm_sub_ps(a.raw, b.raw)}; }
inline vf operator*(vf a, vf b) { return {_mm_mul_ps(a.raw, b.raw)}; }
inline vf operator/(vf a, vf b) { return {_mm_div_ps(a.raw, b.raw)}; }
inline vf vmin(vf a, vf b) { return {_mm_min_ps(a.raw, b.raw)}; }
inline vf vmax(vf a, vf b) { return {_mm_max_ps(a.raw, b.raw)}; }
inline vf vneg(vf a) { return {_mm_sub_ps(_mm_setzero_ps(), a.raw)}; }

inline vf vgt(vf a, vf b) { return {_mm_cmpgt_ps(a.raw, b.raw)}; }
inline vf veq(vf a, vf b) { return {_mm_cmpeq_ps(a.raw, b.raw)}; }
inline vf
vselect(vf mask, vf a, vf b)
{
    // SSE2-safe blend: (mask & a) | (~mask & b).
    return {_mm_or_ps(_mm_and_ps(mask.raw, a.raw),
                      _mm_andnot_ps(mask.raw, b.raw))};
}

#elif defined(LTE_SIMD_BACKEND_NEON)

struct vf
{
    float32x4_t raw;

    static vf zero() { return {vdupq_n_f32(0.0f)}; }
    static vf set1(float x) { return {vdupq_n_f32(x)}; }
    static vf load(const float *p) { return {vld1q_f32(p)}; }
    void store(float *p) const { vst1q_f32(p, raw); }
};

inline vf operator+(vf a, vf b) { return {vaddq_f32(a.raw, b.raw)}; }
inline vf operator-(vf a, vf b) { return {vsubq_f32(a.raw, b.raw)}; }
inline vf operator*(vf a, vf b) { return {vmulq_f32(a.raw, b.raw)}; }
inline vf
operator/(vf a, vf b)
{
#  if defined(__aarch64__)
    return {vdivq_f32(a.raw, b.raw)};
#  else
    // Two Newton-Raphson refinements of the reciprocal estimate.
    float32x4_t r = vrecpeq_f32(b.raw);
    r = vmulq_f32(r, vrecpsq_f32(b.raw, r));
    r = vmulq_f32(r, vrecpsq_f32(b.raw, r));
    return {vmulq_f32(a.raw, r)};
#  endif
}
inline vf vmin(vf a, vf b) { return {vminq_f32(a.raw, b.raw)}; }
inline vf vmax(vf a, vf b) { return {vmaxq_f32(a.raw, b.raw)}; }
inline vf vneg(vf a) { return {vnegq_f32(a.raw)}; }

inline vf
vgt(vf a, vf b)
{
    return {vreinterpretq_f32_u32(vcgtq_f32(a.raw, b.raw))};
}
inline vf
veq(vf a, vf b)
{
    return {vreinterpretq_f32_u32(vceqq_f32(a.raw, b.raw))};
}
inline vf
vselect(vf mask, vf a, vf b)
{
    return {vbslq_f32(vreinterpretq_u32_f32(mask.raw), a.raw, b.raw)};
}

#else // LTE_SIMD_BACKEND_SCALAR

struct vf
{
    float raw[kLanes];

    static vf
    zero()
    {
        vf r{};
        return r;
    }
    static vf
    set1(float x)
    {
        vf r;
        for (std::size_t i = 0; i < kLanes; ++i)
            r.raw[i] = x;
        return r;
    }
    static vf
    load(const float *p)
    {
        vf r;
        for (std::size_t i = 0; i < kLanes; ++i)
            r.raw[i] = p[i];
        return r;
    }
    void
    store(float *p) const
    {
        for (std::size_t i = 0; i < kLanes; ++i)
            p[i] = raw[i];
    }
};

#  define LTE_SIMD_SCALAR_OP(name, expr)                                     \
      inline vf name(vf a, vf b)                                             \
      {                                                                      \
          vf r;                                                              \
          for (std::size_t i = 0; i < kLanes; ++i)                           \
              r.raw[i] = (expr);                                             \
          return r;                                                          \
      }
LTE_SIMD_SCALAR_OP(operator+, a.raw[i] + b.raw[i])
LTE_SIMD_SCALAR_OP(operator-, a.raw[i] - b.raw[i])
LTE_SIMD_SCALAR_OP(operator*, a.raw[i] * b.raw[i])
LTE_SIMD_SCALAR_OP(operator/, a.raw[i] / b.raw[i])
LTE_SIMD_SCALAR_OP(vmin, a.raw[i] < b.raw[i] ? a.raw[i] : b.raw[i])
LTE_SIMD_SCALAR_OP(vmax, a.raw[i] > b.raw[i] ? a.raw[i] : b.raw[i])
#  undef LTE_SIMD_SCALAR_OP

inline vf
vneg(vf a)
{
    vf r;
    for (std::size_t i = 0; i < kLanes; ++i)
        r.raw[i] = -a.raw[i];
    return r;
}

namespace detail {

/** Lane mask from a per-lane predicate (all-ones where it holds). */
inline vf
lane_mask(bool (*pred)(float, float), vf a, vf b)
{
    vf r;
    for (std::size_t i = 0; i < kLanes; ++i) {
        // All-ones float pattern is NaN; keep an explicit bit mask.
        union {
            float f;
            unsigned u;
        } m;
        m.u = pred(a.raw[i], b.raw[i]) ? 0xFFFFFFFFu : 0u;
        r.raw[i] = m.f;
    }
    return r;
}

} // namespace detail

inline vf
vgt(vf a, vf b)
{
    return detail::lane_mask([](float x, float y) { return x > y; }, a, b);
}
inline vf
veq(vf a, vf b)
{
    return detail::lane_mask([](float x, float y) { return x == y; }, a, b);
}
inline vf
vselect(vf mask, vf a, vf b)
{
    vf r;
    for (std::size_t i = 0; i < kLanes; ++i) {
        union {
            float f;
            unsigned u;
        } m;
        m.f = mask.raw[i];
        r.raw[i] = m.u ? a.raw[i] : b.raw[i];
    }
    return r;
}

#endif // backend

} // namespace lte::simd

#endif // LTE_SIMD_SIMD_HPP
