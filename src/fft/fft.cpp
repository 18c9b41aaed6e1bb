#include "fft/fft.hpp"

#include <cmath>
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

/** Smallest prime whose direct-DFT leaf reads a precomputed leaf
 *  matrix; the 2-, 3- and 5-point leaves are a handful of MACs. */
constexpr std::size_t kMinLeafPrime = 7;

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

} // namespace

/**
 * Private implementation: either a mixed-radix recursive Cooley-Tukey
 * transform (all prime factors <= kMaxDirectPrime) or a Bluestein
 * chirp-z transform built on a power-of-two plan.
 */
struct Fft::Impl
{
    explicit Impl(std::size_t n);

    void transform(const cf32 *in, cf32 *out, bool inverse,
                   CfSpan scratch) const;

    std::size_t scratch_size() const { return use_bluestein ? 2 * conv_n : n; }

    // --- mixed radix ---
    template <bool Inverse>
    void
    recurse(const cf32 *in, std::size_t in_stride, cf32 *out,
            std::size_t n, std::size_t root_stride) const;

    /** roots[index], conjugated for the inverse direction.  The caller
     *  guarantees index < n (strides are chosen so no reduction is
     *  needed — avoiding a modulo on every twiddle access). */
    template <bool Inverse>
    cf32
    root(std::size_t index) const
    {
        const cf32 w = roots[index];
        if constexpr (Inverse)
            return std::conj(w);
        return w;
    }

    /** Direct DFT of the prime leaf_p through the leaf matrix: the
     *  vector build computes kLanes output bins at a time, each
     *  accumulated over j in the same order as the scalar tail.  Kept
     *  out of line so its code does not bloat recurse(). */
    template <bool Inverse>
    [[gnu::noinline]] void
    leaf_dft(const cf32 *in, std::size_t in_stride, cf32 *out) const;

#if defined(LTE_SIMD_ENABLED)
    /** Vectorized radix-2 combine (same arithmetic as the scalar fast
     *  path, kLanes butterflies at a time plus a scalar tail). */
    template <bool Inverse>
    void combine2(cf32 *out, std::size_t m, std::size_t root_stride) const;

    /** Vectorized radix-4 combine.  Uses the exact +-i rotation for
     *  W_4 instead of a twiddle lookup, so a radix-4 level costs three
     *  complex multiplies per output column instead of the four the
     *  generic combine would spend on two radix-2 levels. */
    template <bool Inverse>
    void combine4(cf32 *out, std::size_t m, std::size_t root_stride) const;

    /** Vectorized odd-radix combine (the generic formula with the W_p
     *  constants broadcast).  P is the radix when it is known at
     *  compile time (3 and 5, which the odd-factor-first ordering
     *  places at wide columns) or 0 for a runtime radix p. */
    template <std::size_t P, bool Inverse>
    void combinep(cf32 *out, std::size_t p, std::size_t m,
                  std::size_t root_stride) const;

    /** combinep<0> for a prime 5 < p <= kMaxDirectPrime that is not the
     *  leaf.  Kept out of line: inlined into recurse() it slows the
     *  2/3/5-smooth sizes, which never call it. */
    template <bool Inverse>
    [[gnu::noinline]] void
    combine_odd(cf32 *out, std::size_t p, std::size_t m,
                std::size_t root_stride) const
    {
        combinep<0, Inverse>(out, p, m, root_stride);
    }
#endif

    // --- Bluestein ---
    void bluestein(const cf32 *in, cf32 *out, bool inverse,
                   CfSpan scratch) const;

    std::size_t n;
    bool use_bluestein;

    /** exp(-2*pi*i*k/n) for k in [0, n) (forward direction). */
    std::vector<cf32> roots;

    /** Leaf matrix of the largest prime factor leaf_p when
     *  kMinLeafPrime <= leaf_p <= kMaxDirectPrime, else empty (leaf_p
     *  0).  Both factor orders divide primes above 5 out smallest
     *  first, so such a largest prime is always the direct-DFT leaf.
     *  leaf[j*leaf_p + k] = W^(j*k) = roots[(j*k mod leaf_p) *
     *  (n/leaf_p)], the exact twiddles the leaf would index. */
    std::size_t leaf_p = 0;
    std::vector<cf32> leaf;

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
    const std::size_t largest = largest_prime_factor(n);
    use_bluestein = largest > kMaxDirectPrime;

    roots.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double angle =
            -2.0 * std::numbers::pi * static_cast<double>(k) /
            static_cast<double>(n);
        roots[k] = cf32(static_cast<float>(std::cos(angle)),
                        static_cast<float>(std::sin(angle)));
    }

    if (largest >= kMinLeafPrime && !use_bluestein) {
        leaf_p = largest;
        leaf.resize(leaf_p * leaf_p);
        const std::size_t stride = n / leaf_p;
        for (std::size_t j = 0; j < leaf_p; ++j) {
            for (std::size_t k = 0; k < leaf_p; ++k)
                leaf[j * leaf_p + k] = roots[((j * k) % leaf_p) * stride];
        }
    }

    if (use_bluestein) {
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
Fft::Impl::recurse(const cf32 *in, std::size_t in_stride, cf32 *out,
                   std::size_t len, std::size_t root_stride) const
{
    if (len == 1) {
        out[0] = in[0];
        return;
    }

#if defined(LTE_SIMD_ENABLED)
    // Factor order is chosen for the vector combines: odd factors are
    // pulled to the top of the recursion, where their combine spans
    // the widest columns (m = len/p stays large), and the remaining
    // power-of-two subtrees run the radix-4/radix-2 vector butterflies
    // down to trivial leaves.  The scalar build keeps the original
    // smallest-factor-first order.
    std::size_t p;
    if ((len & (len - 1)) == 0) {
        // Pure power of two: radix-4 while possible.
        p = (len > 4 && len % 4 == 0) ? 4 : smallest_factor(len);
    } else {
        std::size_t odd = len;
        while (odd % 2 == 0)
            odd /= 2;
        const std::size_t po = smallest_factor(odd);
        // Past 3 and 5 the original smallest-factor-first order takes
        // over, which leaves the largest prime as the direct-DFT leaf.
        // The order fixes the rounding of every output, so it stays
        // as is even though radix p > 5 combines vectorize too.
        p = po <= 5 ? po : smallest_factor(len);
    }
#else
    const std::size_t p = smallest_factor(len);
#endif
    const std::size_t m = len / p;

    if (p == len) {
        if (len == leaf_p) {
            leaf_dft<Inverse>(in, in_stride, out);
            return;
        }
        // Small prime base case: direct DFT using the master root table.
        // W_len^(jk) == roots[(j*k mod len) * root_stride].
        for (std::size_t k = 0; k < len; ++k) {
            cf32 acc(0.0f, 0.0f);
            for (std::size_t j = 0; j < len; ++j) {
                const std::size_t idx = ((j * k) % len) * root_stride;
                acc += in[j * in_stride] * root<Inverse>(idx);
            }
            out[k] = acc;
        }
        return;
    }

    // Transform the p decimated subsequences.
    for (std::size_t q = 0; q < p; ++q) {
        recurse<Inverse>(in + q * in_stride, in_stride * p, out + q * m,
                         m, root_stride * p);
    }

#if defined(LTE_SIMD_ENABLED)
    if (p == 4) {
        combine4<Inverse>(out, m, root_stride);
        return;
    }
    if (p == 2) {
        combine2<Inverse>(out, m, root_stride);
        return;
    }
    if (p == 3)
        combinep<3, Inverse>(out, p, m, root_stride);
    else if (p == 5)
        combinep<5, Inverse>(out, p, m, root_stride);
    else
        combine_odd<Inverse>(out, p, m, root_stride);
#else
    if (p == 2) {
        // Radix-2 fast path: the combine below collapses to one
        // butterfly per output pair.  Same arithmetic as the generic
        // code (including the multiply by the half-turn root, which is
        // not exactly -1 in float), just without per-element index
        // reductions.
        const cf32 w_half = root<Inverse>(m * root_stride);
        std::size_t tw = 0; // k * root_stride
        for (std::size_t k = 0; k < m; ++k, tw += root_stride) {
            const cf32 t0 = out[k];
            const cf32 t1 = out[m + k] * root<Inverse>(tw);
            out[k] = t0 + t1;
            out[m + k] = t0 + t1 * w_half;
        }
        return;
    }

    // Combine: X[k + r*m] = sum_q W_len^(q*k) * W_p^(q*r) * Y_q[k].
    // All root indices stay below n by construction: q*k*root_stride
    // <= (p-1)*(m-1)*root_stride < len*root_stride = n, and the W_p
    // exponent is reduced mod p incrementally.
    cf32 t[kMaxDirectPrime];
    std::size_t base = 0; // k * root_stride
    for (std::size_t k = 0; k < m; ++k, base += root_stride) {
        t[0] = out[k];
        for (std::size_t q = 1; q < p; ++q)
            t[q] = out[q * m + k] * root<Inverse>(q * base);
        cf32 acc0 = t[0];
        for (std::size_t q = 1; q < p; ++q)
            acc0 += t[q];
        out[k] = acc0;
        for (std::size_t r = 1; r < p; ++r) {
            cf32 acc = t[0];
            std::size_t exp = 0; // (q * r) mod p
            for (std::size_t q = 1; q < p; ++q) {
                exp += r;
                if (exp >= p)
                    exp -= p;
                acc += t[q] * root<Inverse>(exp * m * root_stride);
            }
            out[k + r * m] = acc;
        }
    }
#endif
}

template <bool Inverse>
void
Fft::Impl::leaf_dft(const cf32 *in, std::size_t in_stride, cf32 *out) const
{
    // X[k] = sum_j x[j] * W^(j*k), each bin accumulated from zero in
    // j order: the additions of the modulo-indexed base case, in the
    // same order, on the same twiddles, so the outputs match it bit for
    // bit.  The vector blocks hold kLanes consecutive bins.
    const std::size_t p = leaf_p;
    const cf32 *w = leaf.data();
    std::size_t k = 0;
#if defined(LTE_SIMD_ENABLED)
    for (; k + simd::kLanes <= p; k += simd::kLanes) {
        simd::cvf acc = simd::cvf::zero();
        for (std::size_t j = 0; j < p; ++j) {
            simd::cvf wj = simd::cload(w + j * p + k);
            if constexpr (Inverse)
                wj = simd::cconj(wj);
            acc = acc + simd::cmul(simd::cvf::set1(in[j * in_stride]), wj);
        }
        simd::cstore(out + k, acc);
    }
#endif
    for (; k < p; ++k) {
        cf32 acc(0.0f, 0.0f);
        for (std::size_t j = 0; j < p; ++j) {
            const cf32 wj = w[j * p + k];
            acc += in[j * in_stride] * (Inverse ? std::conj(wj) : wj);
        }
        out[k] = acc;
    }
}

#if defined(LTE_SIMD_ENABLED)

template <bool Inverse>
void
Fft::Impl::combine2(cf32 *out, std::size_t m, std::size_t root_stride) const
{
    const cf32 w_half = root<Inverse>(m * root_stride);
    const simd::cvf wh = simd::cvf::set1(w_half);
    const cf32 *rt = roots.data();
    std::size_t k = 0;
    for (; k + simd::kLanes <= m; k += simd::kLanes) {
        // Twiddles sit at stride root_stride in the master table; at
        // the outermost level the stride is 1 and a contiguous load
        // beats the gather.
        simd::cvf w = root_stride == 1
                          ? simd::cload(rt + k)
                          : simd::cload_strided(rt + k * root_stride,
                                                root_stride);
        if constexpr (Inverse)
            w = simd::cconj(w);
        const simd::cvf t0 = simd::cload(out + k);
        const simd::cvf t1 = simd::cmul(simd::cload(out + m + k), w);
        simd::cstore(out + k, t0 + t1);
        simd::cstore(out + m + k, t0 + simd::cmul(t1, wh));
    }
    std::size_t tw = k * root_stride;
    for (; k < m; ++k, tw += root_stride) {
        const cf32 t0 = out[k];
        const cf32 t1 = out[m + k] * root<Inverse>(tw);
        out[k] = t0 + t1;
        out[m + k] = t0 + t1 * w_half;
    }
}

template <bool Inverse>
void
Fft::Impl::combine4(cf32 *out, std::size_t m, std::size_t root_stride) const
{
    // X[k + r*m] combines the four sub-transforms with twiddles
    // W_len^(q*k) and the exact fourth roots of unity.  The largest
    // twiddle index is 3*(m-1)*root_stride < len*root_stride = n, so
    // no index reduction is needed.  The forward W_4 = -i rotation is
    // (re, im) -> (im, -re); the inverse flips the sign.
    const cf32 *rt = roots.data();
    std::size_t k = 0;
    for (; k + simd::kLanes <= m; k += simd::kLanes) {
        simd::cvf w1 = root_stride == 1
                           ? simd::cload(rt + k)
                           : simd::cload_strided(rt + k * root_stride,
                                                 root_stride);
        simd::cvf w2 = simd::cload_strided(rt + 2 * k * root_stride,
                                           2 * root_stride);
        simd::cvf w3 = simd::cload_strided(rt + 3 * k * root_stride,
                                           3 * root_stride);
        if constexpr (Inverse) {
            w1 = simd::cconj(w1);
            w2 = simd::cconj(w2);
            w3 = simd::cconj(w3);
        }
        const simd::cvf x0 = simd::cload(out + k);
        const simd::cvf x1 = simd::cmul(simd::cload(out + m + k), w1);
        const simd::cvf x2 = simd::cmul(simd::cload(out + 2 * m + k), w2);
        const simd::cvf x3 = simd::cmul(simd::cload(out + 3 * m + k), w3);
        const simd::cvf a = x0 + x2;
        const simd::cvf b = x0 - x2;
        const simd::cvf c = x1 + x3;
        const simd::cvf d = x1 - x3;
        const simd::cvf wd = Inverse
                                 ? simd::cvf{simd::vneg(d.im), d.re}
                                 : simd::cvf{d.im, simd::vneg(d.re)};
        simd::cstore(out + k, a + c);
        simd::cstore(out + m + k, b + wd);
        simd::cstore(out + 2 * m + k, a - c);
        simd::cstore(out + 3 * m + k, b - wd);
    }
    for (; k < m; ++k) {
        const std::size_t base = k * root_stride;
        const cf32 x0 = out[k];
        const cf32 x1 = out[m + k] * root<Inverse>(base);
        const cf32 x2 = out[2 * m + k] * root<Inverse>(2 * base);
        const cf32 x3 = out[3 * m + k] * root<Inverse>(3 * base);
        const cf32 a = x0 + x2;
        const cf32 b = x0 - x2;
        const cf32 c = x1 + x3;
        const cf32 d = x1 - x3;
        const cf32 wd = Inverse ? cf32(-d.imag(), d.real())
                                : cf32(d.imag(), -d.real());
        out[k] = a + c;
        out[m + k] = b + wd;
        out[2 * m + k] = a - c;
        out[3 * m + k] = b - wd;
    }
}

template <std::size_t P, bool Inverse>
void
Fft::Impl::combinep(cf32 *out, std::size_t p, std::size_t m,
                    std::size_t root_stride) const
{
    // The generic combine vectorized across the column index k: the
    // inner W_p constants W_p^(q*r) = roots[((q*r mod p) * m *
    // root_stride)] are broadcast once, and each block evaluates
    //   X[k + r*m] = sum_q W_len^(q*k) * W_p^(q*r) * Y_q[k]
    // in the same accumulation order as the scalar loop.  The largest
    // twiddle index is (p-1)*(m-1)*root_stride < len*root_stride = n.
    constexpr std::size_t kMaxP = P != 0 ? P : kMaxDirectPrime;
    if constexpr (P != 0)
        p = P; // a compile-time radix lets the q/r loops unroll
    simd::cvf wp[kMaxP];
    for (std::size_t e = 0; e < p; ++e)
        wp[e] = simd::cvf::set1(root<Inverse>(e * m * root_stride));

    const cf32 *rt = roots.data();
    std::size_t k = 0;
    for (; k + simd::kLanes <= m; k += simd::kLanes) {
        simd::cvf t[kMaxP];
        t[0] = simd::cload(out + k);
        for (std::size_t q = 1; q < p; ++q) {
            simd::cvf w =
                q * root_stride == 1
                    ? simd::cload(rt + k)
                    : simd::cload_strided(rt + q * k * root_stride,
                                          q * root_stride);
            if constexpr (Inverse)
                w = simd::cconj(w);
            t[q] = simd::cmul(simd::cload(out + q * m + k), w);
        }
        simd::cvf acc0 = t[0];
        for (std::size_t q = 1; q < p; ++q)
            acc0 = acc0 + t[q];
        simd::cstore(out + k, acc0);
        for (std::size_t r = 1; r < p; ++r) {
            simd::cvf acc = t[0];
            std::size_t exp = 0; // (q * r) mod p
            for (std::size_t q = 1; q < p; ++q) {
                exp += r;
                if (exp >= p)
                    exp -= p;
                acc = acc + simd::cmul(t[q], wp[exp]);
            }
            simd::cstore(out + r * m + k, acc);
        }
    }
    std::size_t base = k * root_stride;
    for (; k < m; ++k, base += root_stride) {
        cf32 t[kMaxP];
        t[0] = out[k];
        for (std::size_t q = 1; q < p; ++q)
            t[q] = out[q * m + k] * root<Inverse>(q * base);
        cf32 acc0 = t[0];
        for (std::size_t q = 1; q < p; ++q)
            acc0 += t[q];
        out[k] = acc0;
        for (std::size_t r = 1; r < p; ++r) {
            cf32 acc = t[0];
            std::size_t exp = 0; // (q * r) mod p
            for (std::size_t q = 1; q < p; ++q) {
                exp += r;
                if (exp >= p)
                    exp -= p;
                acc += t[q] * root<Inverse>(exp * m * root_stride);
            }
            out[k + r * m] = acc;
        }
    }
}

#endif // LTE_SIMD_ENABLED

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
    } else if (in == out) {
        LTE_ASSERT(scratch.size() >= n, "in-place FFT scratch too small");
        cf32 *tmp = scratch.data();
        for (std::size_t k = 0; k < n; ++k)
            tmp[k] = in[k];
        if (inverse)
            recurse<true>(tmp, 1, out, n, 1);
        else
            recurse<false>(tmp, 1, out, n, 1);
    } else {
        if (inverse)
            recurse<true>(in, 1, out, n, 1);
        else
            recurse<false>(in, 1, out, n, 1);
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
    // Bluestein: two forward + one inverse transform of conv_n, plus
    // the pointwise chirp multiplies.
    const std::size_t conv_n = next_pow2(2 * n - 1);
    return 3 * mixed_radix_ops(conv_n) +
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
    return mixed_radix_ops(next_5_smooth(n));
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
        // shared_ptr in the map keeps every plan alive for the process
        // lifetime and per-thread tables may cache the raw pointer.
        std::shared_lock lock(mutex_);
        auto it = plans_.find(n);
        if (it != plans_.end())
            return it->second.get();
    }
    std::unique_lock lock(mutex_);
    auto it = plans_.find(n);
    if (it == plans_.end())
        it = plans_.emplace(n, std::make_shared<const Fft>(n)).first;
    return it->second.get();
}

std::shared_ptr<const Fft>
FftCache::get(std::size_t n)
{
    {
        std::shared_lock lock(mutex_);
        auto it = plans_.find(n);
        if (it != plans_.end())
            return it->second;
    }
    std::unique_lock lock(mutex_);
    auto it = plans_.find(n);
    if (it == plans_.end())
        it = plans_.emplace(n, std::make_shared<const Fft>(n)).first;
    return it->second;
}

std::size_t
FftCache::plan_count() const
{
    std::shared_lock lock(mutex_);
    return plans_.size();
}

} // namespace lte::fft
