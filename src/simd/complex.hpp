/**
 * @file
 * Split-complex (structure-of-arrays) vector type on top of simd::vf.
 *
 * The receive-chain buffers store interleaved std::complex<float>; the
 * SIMD kernels want separate real/imaginary registers so a complex
 * multiply is plain mul/add lanes.  `cload`/`cstore` convert between
 * the two layouts with shuffles (one vld2/vst2 on NEON),
 * `cload_strided`/`cstore_strided` gather and scatter kLanes complex
 * values at a constant stride (FFT lanes that span blocks), and
 * `cabs`/`crecip` are lane twins of std::abs and cf32(1) / z that
 * round bit for bit like the library.
 */
#ifndef LTE_SIMD_COMPLEX_HPP
#define LTE_SIMD_COMPLEX_HPP

#include "simd/simd.hpp"

namespace lte::simd {

/** kLanes complex values, split into real and imaginary vectors. */
struct cvf
{
    vf re, im;

    static cvf zero() { return {vf::zero(), vf::zero()}; }
    static cvf set1(cf32 x) { return {vf::set1(x.real()), vf::set1(x.imag())}; }
};

inline cvf operator+(cvf a, cvf b) { return {a.re + b.re, a.im + b.im}; }
inline cvf operator-(cvf a, cvf b) { return {a.re - b.re, a.im - b.im}; }

/** Complex product a*b (naive formula; same arithmetic as the scalar
 *  kernels' std::complex multiply on finite inputs). */
inline cvf
cmul(cvf a, cvf b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/** a * conj(b). */
inline cvf
cmul_conj(cvf a, cvf b)
{
    return {a.re * b.re + a.im * b.im, a.im * b.re - a.re * b.im};
}

inline cvf cconj(cvf a) { return {a.re, vneg(a.im)}; }

/** |a|^2 per lane. */
inline vf cnorm(cvf a) { return a.re * a.re + a.im * a.im; }

/** Scale by a real vector. */
inline cvf cscale(cvf a, vf s) { return {a.re * s, a.im * s}; }

/** Per-lane select: mask ? a : b (mask lanes all-ones/zero). */
inline cvf
cselect(vf mask, cvf a, cvf b)
{
    return {vselect(mask, a.re, b.re), vselect(mask, a.im, b.im)};
}

// ---------------------------------------------------------------------------
// Interleaved <-> split-complex conversions
// ---------------------------------------------------------------------------

#if defined(LTE_SIMD_BACKEND_AVX2)

inline cvf
cload(const cf32 *p)
{
    const float *f = reinterpret_cast<const float *>(p);
    const __m256 a = _mm256_loadu_ps(f);     // r0 i0 r1 i1 | r2 i2 r3 i3
    const __m256 b = _mm256_loadu_ps(f + 8); // r4 i4 r5 i5 | r6 i6 r7 i7
    const __m256 t0 = _mm256_permute2f128_ps(a, b, 0x20);
    const __m256 t1 = _mm256_permute2f128_ps(a, b, 0x31);
    return {{_mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(2, 0, 2, 0))},
            {_mm256_shuffle_ps(t0, t1, _MM_SHUFFLE(3, 1, 3, 1))}};
}

inline void
store_interleaved2(float *f, vf a, vf b)
{
    const __m256 lo = _mm256_unpacklo_ps(a.raw, b.raw);
    const __m256 hi = _mm256_unpackhi_ps(a.raw, b.raw);
    _mm256_storeu_ps(f, _mm256_permute2f128_ps(lo, hi, 0x20));
    _mm256_storeu_ps(f + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
}

inline cvf
cload_strided(const cf32 *p, std::size_t stride)
{
    const float *f = reinterpret_cast<const float *>(p);
    const int s2 = static_cast<int>(2 * stride);
    const __m256i idx = _mm256_mullo_epi32(
        _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0), _mm256_set1_epi32(s2));
    return {{_mm256_i32gather_ps(f, idx, 4)},
            {_mm256_i32gather_ps(f + 1, idx, 4)}};
}

#elif defined(LTE_SIMD_BACKEND_SSE2)

inline cvf
cload(const cf32 *p)
{
    const float *f = reinterpret_cast<const float *>(p);
    const __m128 a = _mm_loadu_ps(f);     // r0 i0 r1 i1
    const __m128 b = _mm_loadu_ps(f + 4); // r2 i2 r3 i3
    return {{_mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0))},
            {_mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1))}};
}

inline void
store_interleaved2(float *f, vf a, vf b)
{
    _mm_storeu_ps(f, _mm_unpacklo_ps(a.raw, b.raw));
    _mm_storeu_ps(f + 4, _mm_unpackhi_ps(a.raw, b.raw));
}

inline cvf
cload_strided(const cf32 *p, std::size_t stride)
{
    const cf32 a = p[0];
    const cf32 b = p[stride];
    const cf32 c = p[2 * stride];
    const cf32 d = p[3 * stride];
    return {{_mm_setr_ps(a.real(), b.real(), c.real(), d.real())},
            {_mm_setr_ps(a.imag(), b.imag(), c.imag(), d.imag())}};
}

#elif defined(LTE_SIMD_BACKEND_NEON)

inline cvf
cload(const cf32 *p)
{
    const float32x4x2_t v =
        vld2q_f32(reinterpret_cast<const float *>(p));
    return {{v.val[0]}, {v.val[1]}};
}

inline void
store_interleaved2(float *f, vf a, vf b)
{
    float32x4x2_t out;
    out.val[0] = a.raw;
    out.val[1] = b.raw;
    vst2q_f32(f, out);
}

inline cvf
cload_strided(const cf32 *p, std::size_t stride)
{
    float re[4], im[4];
    for (std::size_t i = 0; i < 4; ++i) {
        re[i] = p[i * stride].real();
        im[i] = p[i * stride].imag();
    }
    return {vf::load(re), vf::load(im)};
}

#else // scalar

inline cvf
cload(const cf32 *p)
{
    cvf v;
    for (std::size_t i = 0; i < kLanes; ++i) {
        v.re.raw[i] = p[i].real();
        v.im.raw[i] = p[i].imag();
    }
    return v;
}

inline void
store_interleaved2(float *f, vf a, vf b)
{
    for (std::size_t i = 0; i < kLanes; ++i) {
        f[2 * i] = a.raw[i];
        f[2 * i + 1] = b.raw[i];
    }
}

inline cvf
cload_strided(const cf32 *p, std::size_t stride)
{
    cvf v;
    for (std::size_t i = 0; i < kLanes; ++i) {
        v.re.raw[i] = p[i * stride].real();
        v.im.raw[i] = p[i * stride].imag();
    }
    return v;
}

#endif // backend

/** Interleave kLanes complex values back into std::complex storage. */
inline void
cstore(cf32 *p, cvf v)
{
    store_interleaved2(reinterpret_cast<float *>(p), v.re, v.im);
}

/** Scatter kLanes complex values to p[i * stride] (the store twin of
 *  cload_strided, for FFT lanes that span blocks). */
inline void
cstore_strided(cf32 *p, std::size_t stride, cvf v)
{
    cf32 lanes[kLanes];
    cstore(lanes, v);
    for (std::size_t i = 0; i < kLanes; ++i)
        p[i * stride] = lanes[i];
}

// ---------------------------------------------------------------------------
// Lane twins of the std::complex library calls
//
// cabs(z) is bit-identical to std::abs(cf32) and crecip(z) to
// cf32(1) / z, lane by lane, for finite z (crecip: z != 0).  GCC lowers
// std::abs to glibc's cabsf, i.e. hypotf, which rounds
// sqrt((double)re^2 + (double)im^2) to float; cf32(1) / z is libgcc's
// __divsc3, which (GCC 12 on) divides in double with the plain formula
//   den = c^2 + d^2,  x = (a c + b d) / den,  y = (b c - a d) / den
// at a = 1, b = 0 and rounds x and y to float.  Both squares are exact
// in double, so the x86 and aarch64 backends widen each half of the
// vector to double and repeat those operations; the b d = 0 d and
// b c = 0 c terms stay literal because they fix the sign of a zero
// result.  Backends without double lanes (scalar, armv7 NEON) call
// the library per lane.  Contracted multiply-adds (-mfma) would break
// the match, so the exactness holds for the portable builds.
// ---------------------------------------------------------------------------

#if defined(LTE_SIMD_BACKEND_AVX2) || defined(LTE_SIMD_BACKEND_SSE2) ||      \
    (defined(LTE_SIMD_BACKEND_NEON) && defined(__aarch64__))

namespace detail {

#  if defined(LTE_SIMD_BACKEND_AVX2)
using vd = __m256d;
inline vd dadd(vd a, vd b) { return _mm256_add_pd(a, b); }
inline vd dsub(vd a, vd b) { return _mm256_sub_pd(a, b); }
inline vd dmul(vd a, vd b) { return _mm256_mul_pd(a, b); }
inline vd ddiv(vd a, vd b) { return _mm256_div_pd(a, b); }
inline vd dsqrt(vd a) { return _mm256_sqrt_pd(a); }
inline vd dzero() { return _mm256_setzero_pd(); }
inline vd
widen_lo(vf x)
{
    return _mm256_cvtps_pd(_mm256_castps256_ps128(x.raw));
}
inline vd
widen_hi(vf x)
{
    return _mm256_cvtps_pd(_mm256_extractf128_ps(x.raw, 1));
}
inline vf
narrow(vd lo, vd hi)
{
    return {_mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                                 _mm256_cvtpd_ps(hi), 1)};
}
#  elif defined(LTE_SIMD_BACKEND_SSE2)
using vd = __m128d;
inline vd dadd(vd a, vd b) { return _mm_add_pd(a, b); }
inline vd dsub(vd a, vd b) { return _mm_sub_pd(a, b); }
inline vd dmul(vd a, vd b) { return _mm_mul_pd(a, b); }
inline vd ddiv(vd a, vd b) { return _mm_div_pd(a, b); }
inline vd dsqrt(vd a) { return _mm_sqrt_pd(a); }
inline vd dzero() { return _mm_setzero_pd(); }
inline vd widen_lo(vf x) { return _mm_cvtps_pd(x.raw); }
inline vd widen_hi(vf x) { return _mm_cvtps_pd(_mm_movehl_ps(x.raw, x.raw)); }
inline vf
narrow(vd lo, vd hi)
{
    return {_mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi))};
}
#  else // aarch64 NEON
using vd = float64x2_t;
inline vd dadd(vd a, vd b) { return vaddq_f64(a, b); }
inline vd dsub(vd a, vd b) { return vsubq_f64(a, b); }
inline vd dmul(vd a, vd b) { return vmulq_f64(a, b); }
inline vd ddiv(vd a, vd b) { return vdivq_f64(a, b); }
inline vd dsqrt(vd a) { return vsqrtq_f64(a); }
inline vd dzero() { return vdupq_n_f64(0.0); }
inline vd widen_lo(vf x) { return vcvt_f64_f32(vget_low_f32(x.raw)); }
inline vd widen_hi(vf x) { return vcvt_high_f64_f32(x.raw); }
inline vf
narrow(vd lo, vd hi)
{
    return {vcvt_high_f32_f64(vcvt_f32_f64(lo), hi)};
}
#  endif

/** sqrt(re^2 + im^2) on one double half. */
inline vd
dabs(vd re, vd im)
{
    return dsqrt(dadd(dmul(re, re), dmul(im, im)));
}

} // namespace detail

/** |z| per lane, bit-identical to std::abs (see above). */
inline vf
cabs(cvf z)
{
    using namespace detail;
    return narrow(dabs(widen_lo(z.re), widen_lo(z.im)),
                  dabs(widen_hi(z.re), widen_hi(z.im)));
}

/** 1 / z per lane, bit-identical to cf32(1) / z (see above). */
inline cvf
crecip(cvf z)
{
    using namespace detail;
    const vd c[2] = {widen_lo(z.re), widen_hi(z.re)};
    const vd d[2] = {widen_lo(z.im), widen_hi(z.im)};
    vd x[2], y[2];
    for (int h = 0; h < 2; ++h) {
        const vd den = dadd(dmul(c[h], c[h]), dmul(d[h], d[h]));
        x[h] = ddiv(dadd(c[h], dmul(dzero(), d[h])), den);
        y[h] = ddiv(dsub(dmul(dzero(), c[h]), d[h]), den);
    }
    return {narrow(x[0], x[1]), narrow(y[0], y[1])};
}

#else // scalar backend, armv7 NEON

/** |z| per lane: std::abs on each lane. */
inline vf
cabs(cvf z)
{
    float re[kLanes], im[kLanes];
    z.re.store(re);
    z.im.store(im);
    for (std::size_t i = 0; i < kLanes; ++i)
        re[i] = std::abs(cf32(re[i], im[i]));
    return vf::load(re);
}

/** 1 / z per lane: cf32(1) / z on each lane. */
inline cvf
crecip(cvf z)
{
    cf32 v[kLanes];
    cstore(v, z);
    for (std::size_t i = 0; i < kLanes; ++i)
        v[i] = cf32(1.0f, 0.0f) / v[i];
    return cload(v);
}

#endif

} // namespace lte::simd

#endif // LTE_SIMD_COMPLEX_HPP
