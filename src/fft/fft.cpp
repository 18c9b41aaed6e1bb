#include "fft/fft.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numbers>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "simd/complex.hpp"

namespace lte::fft {

namespace {

/** Largest prime factor handled by the direct-DFT base case; sizes with
 *  a bigger prime factor go through Bluestein. */
constexpr std::size_t kMaxDirectPrime = 61;

/** @return the smallest prime factor of n (n >= 2). */
std::size_t
smallest_factor(std::size_t n)
{
    if (n % 2 == 0)
        return 2;
    for (std::size_t f = 3; f * f <= n; f += 2) {
        if (n % f == 0)
            return f;
    }
    return n;
}

/** @return the largest prime factor of n (n >= 1). */
std::size_t
largest_prime_factor(std::size_t n)
{
    std::size_t largest = 1;
    while (n > 1) {
        const std::size_t f = smallest_factor(n);
        largest = f;
        while (n % f == 0)
            n /= f;
    }
    return largest;
}

/**
 * The radix a sub-transform of length @p len splits off; len itself
 * when len is prime (the direct-DFT base).
 *
 * The SIMD order is chosen for the vector combines: odd factors 3 and 5
 * come first, where their combine spans the widest columns, and the
 * remaining power of two runs radix-4 while len > 4.  Past 3 and 5 the
 * smallest-factor-first order takes over, which leaves the largest
 * prime as the direct-DFT base.  The scalar build keeps smallest factor
 * first throughout.  The order fixes the rounding of every output, so
 * it stays as is even though radix p > 5 combines vectorize too.
 */
std::size_t
next_radix(std::size_t len)
{
#if defined(LTE_SIMD_ENABLED)
    if ((len & (len - 1)) == 0)
        return (len > 4 && len % 4 == 0) ? 4 : smallest_factor(len);
    std::size_t odd = len;
    while (odd % 2 == 0)
        odd /= 2;
    const std::size_t po = smallest_factor(odd);
    return po <= 5 ? po : smallest_factor(len);
#else
    return smallest_factor(len);
#endif
}

/** Approximate flop costs of complex primitives. */
constexpr std::uint64_t kCplxMulFlops = 6;
constexpr std::uint64_t kCplxAddFlops = 2;

std::uint64_t
mixed_radix_ops(std::size_t n)
{
    if (n <= 1)
        return 0;
    const std::size_t p = smallest_factor(n);
    if (p == n) {
        // Direct DFT base case: n^2 complex MACs.
        return n * n * (kCplxMulFlops + kCplxAddFlops);
    }
    const std::size_t m = n / p;
    // p sub-transforms + per-output-column twiddles and a pxp DFT.
    const std::uint64_t combine =
        m * (p * kCplxMulFlops + p * p * (kCplxMulFlops + kCplxAddFlops));
    return p * mixed_radix_ops(m) + combine;
}

inline cf32 mul(cf32 a, cf32 b) { return a * b; }

/** d * -i (forward) or d * +i (inverse), negating like unary minus. */
template <bool Inverse>
cf32
rotate_quarter(cf32 d)
{
    return Inverse ? cf32(-d.imag(), d.real()) : cf32(d.imag(), -d.real());
}

#if defined(LTE_SIMD_ENABLED)
inline simd::cvf mul(simd::cvf a, simd::cvf b) { return simd::cmul(a, b); }
#endif

/**
 * One output column of a radix-P combine, in place on x[0..p):
 *   X[r] = sum_q W_p^(q*r) * (W^(q*k) * Y_q),
 * with x[q] = Y_q on entry, w[q] = W^(q*k) for q >= 1 and wp[e] =
 * W_p^e.  V is cf32 for a scalar column or simd::cvf for kLanes
 * columns or blocks; every lane does the scalar column's operations in
 * the same order.  Radix 2 is one butterfly (the generic formula's
 * arithmetic, half-turn multiply included); radix 4 uses the exact
 * quarter-turn @p rot instead of a W_4 lookup.  P is the radix when it
 * is known at compile time or 0 for a runtime prime p > 5.
 */
template <std::size_t P, class V, class Rot>
inline void
butterfly(V *x, const V *w, const V *wp, std::size_t p, Rot rot)
{
    if constexpr (P == 2) {
        const V t0 = x[0];
        const V t1 = mul(x[1], w[1]);
        x[0] = t0 + t1;
        x[1] = t0 + mul(t1, wp[1]);
    } else if constexpr (P == 4) {
        const V y1 = mul(x[1], w[1]);
        const V y2 = mul(x[2], w[2]);
        const V y3 = mul(x[3], w[3]);
        const V a = x[0] + y2;
        const V b = x[0] - y2;
        const V c = y1 + y3;
        const V wd = rot(y1 - y3);
        x[0] = a + c;
        x[1] = b + wd;
        x[2] = a - c;
        x[3] = b - wd;
    } else {
        constexpr std::size_t kMaxP = P != 0 ? P : kMaxDirectPrime;
        if constexpr (P != 0)
            p = P; // a compile-time radix lets the q/r loops unroll
        V t[kMaxP];
        t[0] = x[0];
        for (std::size_t q = 1; q < p; ++q)
            t[q] = mul(x[q], w[q]);
        V acc0 = t[0];
        for (std::size_t q = 1; q < p; ++q)
            acc0 = acc0 + t[q];
        x[0] = acc0;
        for (std::size_t r = 1; r < p; ++r) {
            V acc = t[0];
            std::size_t exp = 0; // (q * r) mod p
            for (std::size_t q = 1; q < p; ++q) {
                exp += r;
                if (exp >= p)
                    exp -= p;
                acc = acc + mul(t[q], wp[exp]);
            }
            x[r] = acc;
        }
    }
}

} // namespace

/**
 * Private implementation: either a mixed-radix Cooley-Tukey transform
 * (all prime factors <= kMaxDirectPrime) compiled into a level plan,
 * or a Bluestein chirp-z transform built on a power-of-two plan.
 *
 * The level plan unrolls the recursion "split off radix p, transform
 * the p decimated subsequences, combine".  Level i splits
 * sub-transforms of length p*m into p of length m; it has `blocks` =
 * p_0 * ... * p_(i-1) blocks, block b occupying out[b*p*m, (b+1)*p*m).
 * Below the last level sit n/L direct DFTs of the prime base length L:
 * the one fed by input residue o reads in[o + j*n/L] and writes its L
 * bins at out[leaf_pos[o]] (the mixed-radix digit reversal of o).
 * Blocks of one level are disjoint, so running the leaves and then
 * each level across all of its blocks, bottom-up, gives every output
 * the inputs and operations a depth-first recursion over the same
 * factors would.
 */
struct Fft::Impl
{
    explicit Impl(std::size_t n);

    void transform(const cf32 *in, cf32 *out, bool inverse,
                   CfSpan scratch) const;

    std::size_t scratch_size() const { return use_bluestein ? 2 * conv_n : n; }

    // --- mixed radix ---
    struct Level
    {
        std::size_t p;      ///< radix
        std::size_t m;      ///< sub-transform length = columns per block
        std::size_t blocks; ///< blocks; also the twiddle root stride
        std::size_t tw;     ///< offset of the level's twiddles in Tables::tw
    };

    /** Twiddles of one direction (the inverse holds the conjugates). */
    struct Tables
    {
        /** Per level, at Level::tw: W^(q*k) = roots[q*k*blocks] at
         *  [(q-1)*m + k] for q in [1, p), k in [0, m), then the p
         *  constants W_p^e = roots[e*m*blocks]. */
        std::vector<cf32> tw;
        /** leaf[j*L + k] = W_L^(j*k) = roots[(j*k mod L) * n/L]. */
        std::vector<cf32> leaf;
    };

    /** Run the plan: the leaf DFTs, then every level bottom-up. */
    template <bool Inverse>
    void execute(const cf32 *in, cf32 *out) const;

    /** The n/L direct DFTs of length L, each bin accumulated from zero
     *  in j order.  SIMD builds vectorize over kLanes bins of a block
     *  while they last, and the remaining bins across kLanes blocks. */
    template <bool Inverse>
    void leaf_pass(const cf32 *in, cf32 *out) const;

    /** One level's combine over all of its blocks.  SIMD builds
     *  vectorize over kLanes columns of a block while they last
     *  (k < floor(m/kLanes)*kLanes) and the remaining columns across
     *  kLanes blocks; only blocks left over from that run scalar. */
    template <std::size_t P, bool Inverse>
    void combine(cf32 *out, const Level &lv) const;

    // --- Bluestein ---
    void bluestein(const cf32 *in, cf32 *out, bool inverse,
                   CfSpan scratch) const;

    std::size_t n;
    bool use_bluestein;

    std::vector<Level> levels;          ///< top-down
    std::size_t base_len = 1;           ///< L, the prime leaf length
    std::vector<std::uint32_t> leaf_pos; ///< residue -> leaf output offset
    Tables tables[2];                   ///< [0] forward, [1] inverse

    // Bluestein state (empty unless use_bluestein).
    std::size_t conv_n = 0;              ///< power-of-two convolution size
    std::unique_ptr<Fft> conv_fft;       ///< plan of size conv_n
    std::vector<cf32> chirp;             ///< b_k = exp(-i*pi*k^2/n), k in [0, n)
    std::vector<cf32> chirp_fft;         ///< FFT of the zero-padded conjugate chirp
};

Fft::Impl::Impl(std::size_t size)
    : n(size)
{
    LTE_CHECK(n >= 1, "FFT size must be >= 1");
    LTE_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
              "FFT size must fit in 32 bits");
    use_bluestein = largest_prime_factor(n) > kMaxDirectPrime;

    if (!use_bluestein) {
        // exp(-2*pi*i*k/n) for k in [0, n): every twiddle below is one
        // of these values.
        std::vector<cf32> roots(n);
        for (std::size_t k = 0; k < n; ++k) {
            const double angle =
                -2.0 * std::numbers::pi * static_cast<double>(k) /
                static_cast<double>(n);
            roots[k] = cf32(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
        }

        // Walk the factor order top-down, tracking each
        // sub-transform's input residue and output offset.
        Tables &fwd = tables[0];
        std::vector<std::uint32_t> pos{0};
        std::size_t len = n;
        std::size_t blocks = 1;
        for (std::size_t p = next_radix(len); p != len; p = next_radix(len)) {
            const std::size_t m = len / p;
            levels.push_back({p, m, blocks, fwd.tw.size()});
            for (std::size_t q = 1; q < p; ++q) {
                for (std::size_t k = 0; k < m; ++k)
                    fwd.tw.push_back(roots[q * k * blocks]);
            }
            for (std::size_t e = 0; e < p; ++e)
                fwd.tw.push_back(roots[e * m * blocks]);
            // Sub-transform q of residue o reads residue o + q*blocks
            // and writes at offset pos[o] + q*m.
            std::vector<std::uint32_t> next(pos.size() * p);
            for (std::size_t o = 0; o < pos.size(); ++o) {
                for (std::size_t q = 0; q < p; ++q)
                    next[o + q * blocks] =
                        static_cast<std::uint32_t>(pos[o] + q * m);
            }
            pos.swap(next);
            blocks *= p;
            len = m;
        }
        base_len = len;
        leaf_pos = std::move(pos);
        fwd.leaf.resize(len * len);
        for (std::size_t j = 0; j < len; ++j) {
            for (std::size_t k = 0; k < len; ++k)
                fwd.leaf[j * len + k] = roots[((j * k) % len) * blocks];
        }

        // The inverse tables conjugate with std::conj.  No twiddle has
        // a +0 imaginary part (only roots[0]'s is zero, and it is -0),
        // so this matches conjugating with a vector 0 - x bit for bit.
        Tables &inv = tables[1];
        for (const cf32 w : fwd.tw)
            inv.tw.push_back(std::conj(w));
        for (const cf32 w : fwd.leaf)
            inv.leaf.push_back(std::conj(w));
    } else {
        conv_n = next_pow2(2 * n - 1);
        conv_fft = std::make_unique<Fft>(conv_n);

        chirp.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            // k^2 mod 2n keeps the angle argument small and exact.
            const std::size_t k2 = (k * k) % (2 * n);
            const double angle =
                -std::numbers::pi * static_cast<double>(k2) /
                static_cast<double>(n);
            chirp[k] = cf32(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
        }

        // FFT of the conjugate chirp, wrapped for circular convolution.
        std::vector<cf32> b(conv_n, cf32(0.0f, 0.0f));
        b[0] = std::conj(chirp[0]);
        for (std::size_t k = 1; k < n; ++k) {
            b[k] = std::conj(chirp[k]);
            b[conv_n - k] = std::conj(chirp[k]);
        }
        chirp_fft.resize(conv_n);
        conv_fft->forward(b.data(), chirp_fft.data());
    }
}

template <bool Inverse>
void
Fft::Impl::execute(const cf32 *in, cf32 *out) const
{
    leaf_pass<Inverse>(in, out);
    for (auto lv = levels.rbegin(); lv != levels.rend(); ++lv) {
        switch (lv->p) {
        case 2:
            combine<2, Inverse>(out, *lv);
            break;
        case 3:
            combine<3, Inverse>(out, *lv);
            break;
        case 4:
            combine<4, Inverse>(out, *lv);
            break;
        case 5:
            combine<5, Inverse>(out, *lv);
            break;
        default:
            combine<0, Inverse>(out, *lv);
            break;
        }
    }
}

template <bool Inverse>
void
Fft::Impl::leaf_pass(const cf32 *in, cf32 *out) const
{
    const std::size_t len = base_len;
    if (len == 1) {
        out[0] = in[0]; // n == 1
        return;
    }
    // X[k] = sum_j x[j] * W_L^(j*k), each bin accumulated from zero in
    // j order, so every path below does the same additions on the same
    // twiddles.
    const std::size_t blocks = n / len; // also the input stride
    const cf32 *w = tables[Inverse].leaf.data();
    const std::uint32_t *pos = leaf_pos.data();
    std::size_t kv = 0; // bins vectorized within a block
    std::size_t o0 = 0; // first block of the scalar remainder
#if defined(LTE_SIMD_ENABLED)
    using simd::cvf;
    constexpr std::size_t kL = simd::kLanes;
    kv = len / kL * kL;
    for (std::size_t o = 0; kv != 0 && o < blocks; ++o) {
        cf32 *dst = out + pos[o];
        for (std::size_t k = 0; k < kv; k += kL) {
            cvf acc = cvf::zero();
            for (std::size_t j = 0; j < len; ++j)
                acc = acc + simd::cmul(cvf::set1(in[o + j * blocks]),
                                       simd::cload(w + j * len + k));
            simd::cstore(dst + k, acc);
        }
    }
    for (; kv < len && o0 + kL <= blocks; o0 += kL) {
        // Lane i is block o0 + i: consecutive residues, so the inputs
        // load contiguously and each lane stores to its own block.
        for (std::size_t k = kv; k < len; ++k) {
            cvf acc = cvf::zero();
            for (std::size_t j = 0; j < len; ++j)
                acc = acc + simd::cmul(simd::cload(in + o0 + j * blocks),
                                       cvf::set1(w[j * len + k]));
            cf32 lane[kL];
            simd::cstore(lane, acc);
            for (std::size_t i = 0; i < kL; ++i)
                out[pos[o0 + i] + k] = lane[i];
        }
    }
#endif
    for (std::size_t o = o0; kv < len && o < blocks; ++o) {
        cf32 *dst = out + pos[o];
        for (std::size_t k = kv; k < len; ++k) {
            cf32 acc(0.0f, 0.0f);
            for (std::size_t j = 0; j < len; ++j)
                acc += in[o + j * blocks] * w[j * len + k];
            dst[k] = acc;
        }
    }
}

template <std::size_t P, bool Inverse>
void
Fft::Impl::combine(cf32 *out, const Level &lv) const
{
    constexpr std::size_t kMaxP = P != 0 ? P : kMaxDirectPrime;
    const std::size_t p = P != 0 ? P : lv.p;
    const std::size_t m = lv.m;
    const std::size_t len = p * m;
    const cf32 *tw = tables[Inverse].tw.data() + lv.tw;
    const cf32 *wp = tw + (p - 1) * m;
    std::size_t kv = 0; // columns vectorized within a block
    std::size_t b0 = 0; // first block of the scalar remainder
#if defined(LTE_SIMD_ENABLED)
    using simd::cvf;
    constexpr std::size_t kL = simd::kLanes;
    cvf wpv[kMaxP];
    for (std::size_t e = 0; e < p; ++e)
        wpv[e] = cvf::set1(wp[e]);
    kv = m / kL * kL;
    for (std::size_t b = 0; kv != 0 && b < lv.blocks; ++b) {
        cf32 *blk = out + b * len;
        for (std::size_t k = 0; k < kv; k += kL) {
            cvf x[kMaxP], w[kMaxP];
            for (std::size_t q = 0; q < p; ++q)
                x[q] = simd::cload(blk + q * m + k);
            for (std::size_t q = 1; q < p; ++q)
                w[q] = simd::cload(tw + (q - 1) * m + k);
            // This path's rotation negates as 0 - x, which the pinned
            // digests were recorded with (it differs from -x on a +0).
            butterfly<P>(x, w, wpv, p, [](cvf d) {
                return Inverse ? cvf{simd::vneg(d.im), d.re}
                               : cvf{d.im, simd::vneg(d.re)};
            });
            for (std::size_t q = 0; q < p; ++q)
                simd::cstore(blk + q * m + k, x[q]);
        }
    }
    for (; kv < m && b0 + kL <= lv.blocks; b0 += kL) {
        // Lane i is block b0 + i, at stride len; the twiddle is shared.
        cf32 *blk = out + b0 * len;
        for (std::size_t k = kv; k < m; ++k) {
            cvf x[kMaxP], w[kMaxP];
            for (std::size_t q = 0; q < p; ++q)
                x[q] = simd::cload_strided(blk + q * m + k, len);
            for (std::size_t q = 1; q < p; ++q)
                w[q] = cvf::set1(tw[(q - 1) * m + k]);
            // The scalar column negates with unary minus; x * -1
            // matches it on every non-NaN value, +0 included, where
            // 0 - x would not.
            butterfly<P>(x, w, wpv, p, [](cvf d) {
                const simd::vf neg = simd::vf::set1(-1.0f);
                return Inverse ? cvf{d.im * neg, d.re}
                               : cvf{d.im, d.re * neg};
            });
            for (std::size_t q = 0; q < p; ++q)
                simd::cstore_strided(blk + q * m + k, len, x[q]);
        }
    }
#endif
    for (std::size_t b = b0; kv < m && b < lv.blocks; ++b) {
        cf32 *blk = out + b * len;
        for (std::size_t k = kv; k < m; ++k) {
            cf32 x[kMaxP], w[kMaxP];
            for (std::size_t q = 0; q < p; ++q)
                x[q] = blk[q * m + k];
            for (std::size_t q = 1; q < p; ++q)
                w[q] = tw[(q - 1) * m + k];
            butterfly<P>(x, w, wp, p, rotate_quarter<Inverse>);
            for (std::size_t q = 0; q < p; ++q)
                blk[q * m + k] = x[q];
        }
    }
}

void
Fft::Impl::bluestein(const cf32 *in, cf32 *out, bool inverse,
                     CfSpan scratch) const
{
    // Chirp-z identity: with chirp_k = exp(-i*pi*k^2/n),
    //   X_k = chirp_k * (a (*) b)_k,  a_j = x_j * chirp_j,
    //   b_m = conj(chirp_m)  (wrapped for circular convolution).
    // The inverse transform conjugates both chirp and kernel.
    //
    // Scratch layout: [0, conv_n) holds the padded chirped input "a"
    // (later reused for the convolution result — conv_fft is a
    // power-of-two plan, so its out-of-place transform never reads
    // back its input), [conv_n, 2*conv_n) holds its spectrum "fa".
    LTE_ASSERT(scratch.size() >= 2 * conv_n,
               "Bluestein scratch too small");
    const CfSpan a = scratch.subspan(0, conv_n);
    const CfSpan fa = scratch.subspan(conv_n, conv_n);

    std::size_t k = 0;
#if defined(LTE_SIMD_ENABLED)
    for (; k + simd::kLanes <= n; k += simd::kLanes) {
        const simd::cvf x = simd::cload(in + k);
        const simd::cvf c = simd::cload(chirp.data() + k);
        simd::cstore(a.data() + k,
                     inverse ? simd::cmul_conj(x, c) : simd::cmul(x, c));
    }
#endif
    for (; k < n; ++k) {
        const cf32 c = inverse ? std::conj(chirp[k]) : chirp[k];
        a[k] = in[k] * c;
    }
    for (k = n; k < conv_n; ++k)
        a[k] = cf32(0.0f, 0.0f);

    // conv_fft is mixed-radix and runs out-of-place here, so it needs
    // no scratch of its own — pass an empty span to keep this call
    // off the per-thread fallback buffer.
    conv_fft->forward(a.data(), fa.data(), CfSpan{});
    if (inverse) {
        // The convolution kernel is conj(chirp); for the inverse
        // transform the kernel is chirp itself, whose FFT is the
        // conjugate-mirrored chirp_fft. Recompute cheaply via symmetry:
        // FFT(conj(b))[k] = conj(FFT(b)[(conv_n - k) % conv_n]).
        for (k = 0; k < conv_n; ++k) {
            const std::size_t mirror = (conv_n - k) % conv_n;
            fa[k] *= std::conj(chirp_fft[mirror]);
        }
    } else {
        k = 0;
#if defined(LTE_SIMD_ENABLED)
        for (; k + simd::kLanes <= conv_n; k += simd::kLanes) {
            const simd::cvf f = simd::cload(fa.data() + k);
            const simd::cvf c = simd::cload(chirp_fft.data() + k);
            simd::cstore(fa.data() + k, simd::cmul(f, c));
        }
#endif
        for (; k < conv_n; ++k)
            fa[k] *= chirp_fft[k];
    }

    conv_fft->inverse(fa.data(), a.data(), CfSpan{});

    k = 0;
#if defined(LTE_SIMD_ENABLED)
    for (; k + simd::kLanes <= n; k += simd::kLanes) {
        const simd::cvf x = simd::cload(a.data() + k);
        const simd::cvf c = simd::cload(chirp.data() + k);
        simd::cstore(out + k,
                     inverse ? simd::cmul_conj(x, c) : simd::cmul(x, c));
    }
#endif
    for (; k < n; ++k) {
        const cf32 c = inverse ? std::conj(chirp[k]) : chirp[k];
        out[k] = a[k] * c;
    }
}

void
Fft::Impl::transform(const cf32 *in, cf32 *out, bool inverse,
                     CfSpan scratch) const
{
    if (use_bluestein) {
        bluestein(in, out, inverse, scratch);
    } else {
        if (in == out) {
            LTE_ASSERT(scratch.size() >= n, "in-place FFT scratch too small");
            cf32 *tmp = scratch.data();
            for (std::size_t k = 0; k < n; ++k)
                tmp[k] = in[k];
            in = tmp;
        }
        if (inverse)
            execute<true>(in, out);
        else
            execute<false>(in, out);
    }

    if (inverse) {
        const float scale = 1.0f / static_cast<float>(n);
        std::size_t k = 0;
#if defined(LTE_SIMD_ENABLED)
        const simd::vf s = simd::vf::set1(scale);
        float *f = reinterpret_cast<float *>(out);
        // Interleaved scaling by a real factor needs no deinterleave:
        // scale 2*kLanes consecutive floats per iteration.
        for (; k + simd::kLanes <= n; k += simd::kLanes) {
            const simd::vf a = simd::vf::load(f + 2 * k);
            const simd::vf b = simd::vf::load(f + 2 * k + simd::kLanes);
            (a * s).store(f + 2 * k);
            (b * s).store(f + 2 * k + simd::kLanes);
        }
#endif
        for (; k < n; ++k)
            out[k] *= scale;
    }
}

namespace {

/** Grow-only per-thread scratch backing the span-less transform
 *  overloads; steady-state allocation-free once a thread has seen its
 *  largest transform. */
CfSpan
thread_scratch(std::size_t min_samples)
{
    thread_local std::vector<cf32> scratch;
    if (scratch.size() < min_samples)
        scratch.resize(min_samples);
    return {scratch.data(), scratch.size()};
}

} // namespace

Fft::Fft(std::size_t n)
    : impl_(std::make_unique<Impl>(n))
{
}

Fft::~Fft() = default;

std::size_t
Fft::size() const
{
    return impl_->n;
}

std::size_t
Fft::scratch_size() const
{
    return impl_->scratch_size();
}

namespace {

/** Scratch actually consumed by one transform call (the aliasing copy
 *  is only needed when in == out). */
std::size_t
scratch_needed(const Fft &fft, const cf32 *in, const cf32 *out)
{
    const std::size_t full = fft.scratch_size();
    if (full == fft.size() && in != out)
        return 0; // mixed-radix, out-of-place: no scratch at all
    return full;
}

} // namespace

void
Fft::forward(const cf32 *in, cf32 *out) const
{
    impl_->transform(in, out, false,
                     thread_scratch(scratch_needed(*this, in, out)));
}

void
Fft::inverse(const cf32 *in, cf32 *out) const
{
    impl_->transform(in, out, true,
                     thread_scratch(scratch_needed(*this, in, out)));
}

void
Fft::forward(const cf32 *in, cf32 *out, CfSpan scratch) const
{
    impl_->transform(in, out, false, scratch);
}

void
Fft::inverse(const cf32 *in, cf32 *out, CfSpan scratch) const
{
    impl_->transform(in, out, true, scratch);
}

std::uint64_t
Fft::op_count(std::size_t n)
{
    if (n <= 1)
        return 0;
    if (largest_prime_factor(n) <= kMaxDirectPrime)
        return mixed_radix_ops(n);
    // Bluestein: one forward and one inverse transform of conv_n (the
    // chirp's spectrum is computed once, at plan time), plus the
    // pointwise chirp multiplies.
    const std::size_t conv_n = next_pow2(2 * n - 1);
    return 2 * mixed_radix_ops(conv_n) +
           (2 * n + conv_n) * kCplxMulFlops;
}

std::size_t
Fft::next_5_smooth(std::size_t n)
{
    if (n <= 1)
        return 1;
    std::size_t candidate = n;
    while (!is_5_smooth(candidate))
        ++candidate;
    return candidate;
}

std::uint64_t
Fft::op_count_smooth(std::size_t n)
{
    // The op model prices every simulated user's FFTs through here,
    // at sizes up to one slot's widest allocation (100 PRB x 12); a
    // table built once replaces the 5-smooth search and the radix
    // recursion for those sizes.
    constexpr std::size_t kTableSize =
        kMaxPrbPerSubframe / kSlotsPerSubframe * kScPerPrb + 1;
    static const std::array<std::uint64_t, kTableSize> table = [] {
        std::array<std::uint64_t, kTableSize> t{};
        for (std::size_t m = 0; m < kTableSize; ++m)
            t[m] = mixed_radix_ops(next_5_smooth(m));
        return t;
    }();
    return n < kTableSize ? table[n]
                          : mixed_radix_ops(next_5_smooth(n));
}

FftCache &
FftCache::instance()
{
    static FftCache cache;
    return cache;
}

const Fft &
FftCache::plan(std::size_t n)
{
    // Per-thread direct-mapped table: fixed storage (no heap even on a
    // brand-new worker thread), collision policy is simple overwrite.
    // A subframe touches only a handful of distinct sizes, so hits are
    // the overwhelmingly common case.
    struct Slot
    {
        std::size_t n;
        const Fft *plan;
    };
    constexpr std::size_t kSlots = 128; // power of two for cheap masking
    thread_local Slot slots[kSlots] = {};

    Slot &slot = slots[(n * 0x9E3779B97F4A7C15ull >> 32) & (kSlots - 1)];
    if (slot.plan != nullptr && slot.n == n)
        return *slot.plan;

    const Fft *plan = lookup_shared(n);
    slot = {n, plan};
    return *plan;
}

const Fft *
FftCache::lookup_shared(std::size_t n)
{
    {
        // Raw plan pointers are stable: the cache never evicts, so the
        // unique_ptr in the map keeps every plan alive for the process
        // lifetime and per-thread tables may cache the raw pointer.
        std::shared_lock lock(mutex_);
        auto it = plans_.find(n);
        if (it != plans_.end())
            return it->second.get();
    }
    std::unique_lock lock(mutex_);
    auto it = plans_.find(n);
    if (it == plans_.end())
        it = plans_.emplace(n, std::make_unique<const Fft>(n)).first;
    return it->second.get();
}

} // namespace lte::fft
