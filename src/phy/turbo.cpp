#include "phy/turbo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/check.hpp"
#include "phy/crc.hpp"
#include "phy/modulation.hpp"
#include "simd/trellis.hpp"

namespace lte::phy {

namespace {

/** Extrinsic damping factor, the standard max-log correction. */
constexpr float kExtrinsicScale = 0.75f;

/** 8-state RSC trellis: g0 = 1 + D^2 + D^3 (feedback),
 *  g1 = 1 + D + D^3 (parity). State = (r1, r2, r3), r1 most recent. */
struct Trellis
{
    static constexpr int kStates = 8;

    /** Feedback-adjusted register input for info bit c in state s. */
    static int
    reg_input(int s, int c)
    {
        const int r2 = (s >> 1) & 1;
        const int r3 = (s >> 2) & 1;
        return c ^ r2 ^ r3;
    }

    static int
    parity(int s, int w)
    {
        const int r1 = s & 1;
        const int r3 = (s >> 2) & 1;
        return w ^ r1 ^ r3;
    }
};

int
rsc_step(int &state, int c, int &parity_out)
{
    const int w = Trellis::reg_input(state, c);
    parity_out = Trellis::parity(state, w);
    state = ((state << 1) | w) & 0x7;
    return w;
}

/** Tail input that forces the feedback-adjusted register input to 0. */
int
tail_bit(int state)
{
    const int r2 = (state >> 1) & 1;
    const int r3 = (state >> 2) & 1;
    return r2 ^ r3;
}

std::uint64_t
gcd_u64(std::uint64_t a, std::uint64_t b)
{
    while (b) {
        const std::uint64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/** Check that pi(i) = (f1*i + f2*i^2) mod k is a bijection. */
bool
qpp_is_bijection(std::size_t k, std::uint64_t f1, std::uint64_t f2,
                 std::vector<std::size_t> &perm)
{
    std::vector<bool> hit(k, false);
    perm.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t idx =
            (f1 * i % k + f2 % k * (i * i % k)) % k;
        if (hit[idx])
            return false;
        hit[idx] = true;
        perm[i] = static_cast<std::size_t>(idx);
    }
    return true;
}

/**
 * Minimum circular distance between the images of adjacent inputs —
 * a key turbo-interleaver quality metric: low spread lets short error
 * bursts survive both constituent decoders.
 */
std::size_t
qpp_spread(std::size_t k, const std::vector<std::size_t> &perm)
{
    std::size_t spread = k;
    for (std::size_t i = 0; i + 1 < k; ++i) {
        const std::size_t a = perm[i], b = perm[i + 1];
        const std::size_t d = a > b ? a - b : b - a;
        spread = std::min(spread, std::min(d, k - d));
    }
    return spread;
}

// ---------------------------------------------------------------------------
// Fixed-point max-log-MAP over the 8-state trellis (DESIGN.md Sec. 3h)
//
// Every transition metric from state s is +/-g(s) with
//   g(s) = 0.5 * (L_sys + Q[s] * L_par),    Q[s] = parity sign of the
// input-0 branch, and the +/- chosen by the input bit.  Across the 8
// states that is only ever one of the four values
//   [A, -A, B, -B],  A = (L_sys + L_par)/2,  B = (L_sys - L_par)/2,
// so each step's metrics collapse to one precomputed 4-entry row plus
// fixed cross-lane permutations of one 8-lane state column.
//
// The recursions run in saturating 16-bit fixed point (simd::v8s): a
// per-pass adaptive scale Q maps the largest |L_sys|+|L_par| of the
// pass (tails included) to kGammaScaleMax, so branch metrics use 11
// bits and the bounded drift between renormalizations keeps working
// metrics inside int16.  Saturating add/sub replaces the float
// implementation's infinite headroom: one PADDSW/PSUBSW/PMAXSW per
// column in SIMD, an explicit `sat16` clamp per operation in the
// scalar twin.  Both twins read the same quantized rows and saturate
// identically — and max is an exact selection — so their outputs are
// bit-identical (tests/test_turbo.cpp parity suite).  Posterior LLRs
// are dequantized back to floats (x 1/Q) for the extrinsic exchange,
// which stays in float like the rest of the pipeline.
// ---------------------------------------------------------------------------

/** Fixed-point metric "minus infinity": the saturation floor. */
constexpr std::int16_t kNegInf16 = -32768;

/** Largest quantized branch-metric magnitude: 11 bits, so eight
 *  un-renormalized steps drift at most 8 * 2047 and the column spread
 *  on top still fits int16 without routine saturation. */
constexpr float kGammaScaleMax = 4094.0f;

/** Successor of s under input 0; input 1 flips the low bit. */
constexpr std::array<int, 8> kNext0 = {0, 2, 5, 7, 1, 3, 4, 6};
constexpr std::array<int, 8> kNext1 = {1, 3, 4, 6, 0, 2, 5, 7};

/** Branch metric of the forced termination step t (0..2) from state
 *  s: input is tail_bit(s), the register input is 0, so the parity
 *  is r1 ^ r3.  Shared by both decoder paths (the 3 tail steps stay
 *  scalar; their trellis is a different, single-branch shape). */
inline float
tail_gamma(int s, float ls, float lp)
{
    const float u_pm = tail_bit(s) ? -1.0f : 1.0f;
    const float p_pm = ((s & 1) ^ ((s >> 2) & 1)) ? -1.0f : 1.0f;
    return 0.5f * (u_pm * ls + p_pm * lp);
}

/** Per-pass quantization: LLR -> metric multiplier and its inverse
 *  (both zero when the pass input is all-zero — rows are zero and the
 *  posterior dequantizes to exactly 0, no division anywhere). */
struct GammaScale
{
    float q = 0.0f;
    float invq = 0.0f;
};

/**
 * Quantize the per-step branch-metric rows [A, -A, B, -B] with
 * A = (L_sys + L_par) / 2 and B = (L_sys - L_par) / 2: every
 * transition metric of step t is one of these four values, so both
 * pass twins read the rows instead of rebuilding sys/par combinations
 * on the recursion's critical path.  The scale adapts per pass (the
 * extrinsic-augmented input grows across iterations, and high-SNR
 * demapper LLRs are huge to begin with): the largest |sys|+|par| of
 * the pass, tails included, maps to kGammaScaleMax.  Shared by the
 * twins — identical rows are half of bit-identical outputs.
 */
GammaScale
quantize_gamma_rows(const float *sys, const float *par, std::size_t k,
                    const float tail_sys[3], const float tail_par[3],
                    std::int16_t *rows)
{
    float m = 0.0f;
    for (std::size_t t = 0; t < k; ++t) {
        const float v = std::fabs(sys[t]) + std::fabs(par[t]);
        m = v > m ? v : m;
    }
    for (int i = 0; i < 3; ++i) {
        const float v = std::fabs(tail_sys[i]) + std::fabs(tail_par[i]);
        m = v > m ? v : m;
    }
    if (!(m > 0.0f)) {
        std::fill(rows, rows + k * 4, std::int16_t{0});
        return {};
    }
    const float qh = 0.5f * kGammaScaleMax / m; // folds the 1/2 of A, B

    std::size_t t = 0;
#if defined(LTE_SIMD_BACKEND_AVX2) || defined(LTE_SIMD_BACKEND_SSE2)
    // Four steps per trip: convert, pack to [A0..3 | B0..3], negate
    // saturating, then two interleaves turn the pairs into four
    // consecutive rows.  CVTPS2DQ rounds to nearest even, same as the
    // lrintf in the tail/portable loop.
    const __m128 qhv = _mm_set1_ps(qh);
    const __m128i zero = _mm_setzero_si128();
    for (; t + 4 <= k; t += 4) {
        const __m128 s = _mm_loadu_ps(sys + t);
        const __m128 p = _mm_loadu_ps(par + t);
        const __m128i ia =
            _mm_cvtps_epi32(_mm_mul_ps(_mm_add_ps(s, p), qhv));
        const __m128i ib =
            _mm_cvtps_epi32(_mm_mul_ps(_mm_sub_ps(s, p), qhv));
        const __m128i w = _mm_packs_epi32(ia, ib);
        const __m128i wn = _mm_subs_epi16(zero, w);
        const __m128i za = _mm_unpacklo_epi16(w, wn); // [A, -A] pairs
        const __m128i zb = _mm_unpackhi_epi16(w, wn); // [B, -B] pairs
        __m128i *dst = reinterpret_cast<__m128i *>(rows + t * 4);
        _mm_storeu_si128(dst, _mm_unpacklo_epi32(za, zb));
        _mm_storeu_si128(dst + 1, _mm_unpackhi_epi32(za, zb));
    }
#endif
    for (; t < k; ++t) {
        const std::int16_t qa = simd::sat16(
            static_cast<int>(std::lrintf((sys[t] + par[t]) * qh)));
        const std::int16_t qb = simd::sat16(
            static_cast<int>(std::lrintf((sys[t] - par[t]) * qh)));
        std::int16_t *row = rows + t * 4;
        row[0] = qa;
        row[1] = simd::sat16(-static_cast<int>(qa));
        row[2] = qb;
        row[3] = simd::sat16(-static_cast<int>(qb));
    }
    return {2.0f * qh, m / kGammaScaleMax};
}

/** Prime beta with the quantized termination steps: the trellis ends
 *  in state 0 at k+3; walk the 3 forced steps back to the column at
 *  time k.  Off the hot path and shared by both twins, so it stays a
 *  plain scalar loop (max-normalized: the tail column starts from the
 *  -32768 "minus infinity" floor, which lane-0 anchoring can't lift). */
void
beta_init_q(const float tail_sys[3], const float tail_par[3], float q,
            std::int16_t *bn)
{
    using simd::sat16;
    std::int16_t col[8];
    col[0] = 0;
    for (int s = 1; s < 8; ++s)
        col[s] = kNegInf16;
    for (int step = 2; step >= 0; --step) {
        std::int16_t prev[8];
        std::int16_t norm = kNegInf16;
        for (int s = 0; s < 8; ++s) {
            const std::int16_t tg = sat16(static_cast<int>(std::lrintf(
                q * tail_gamma(s, tail_sys[step], tail_par[step]))));
            prev[s] =
                sat16(static_cast<int>(tg) + col[(2 * s) & 7]);
            norm = prev[s] > norm ? prev[s] : norm;
        }
        for (int s = 0; s < 8; ++s)
            col[s] = sat16(prev[s] - static_cast<int>(norm));
    }
    std::copy(col, col + 8, bn);
}

/**
 * Scalar max-log-MAP pass: formula-for-formula the lane-wise
 * expansion of the SIMD pass below — every add/sub clamps through
 * `sat16` exactly where the vector ops saturate, and max is an exact
 * selection, so their outputs are bit-identical.  alpha holds (k+1)
 * rows of 8; post gets one dequantized a-posteriori LLR per info bit.
 * Metric columns are renormalized every 8th step by subtracting state
 * 0: the per-step drift is bounded by kGammaScaleMax/2, so eight
 * steps keep the column inside int16 without routine saturation, and
 * lane 0 bounds it without putting a reduction on the serial chain.
 */
void
map_pass_scalar(std::size_t k, const std::int16_t *gamma,
                const std::int16_t bn_init[8], std::int16_t *alpha,
                float *post, float invq)
{
    using simd::sat16;

    // Forward recursion.
    alpha[0] = 0;
    for (int s = 1; s < 8; ++s)
        alpha[s] = kNegInf16;
    for (std::size_t t = 0; t < k; ++t) {
        const std::int16_t *a = alpha + t * 8;
        std::int16_t *an = alpha + (t + 1) * 8;
        const std::int16_t *row = gamma + t * 4;
        // p8[s]: signed metric of the transition from predecessor
        // s>>1 into s; the (s>>1)+4 predecessor uses -p8[s].
        const std::int16_t p8[8] = {row[0], row[1], row[2], row[3],
                                    row[3], row[2], row[1], row[0]};
        for (int s = 0; s < 8; ++s) {
            const int j = s >> 1;
            const std::int16_t lo = sat16(a[j] + p8[s]);
            const std::int16_t hi = sat16(a[j + 4] - p8[s]);
            an[s] = lo > hi ? lo : hi;
        }
        if ((t & 7) == 7) {
            const std::int16_t norm = an[0];
            for (int s = 0; s < 8; ++s)
                an[s] = sat16(an[s] - static_cast<int>(norm));
        }
    }

    // Backward recursion fused with the LLR output; bn is beta[t+1].
    // (Forward termination steps are not needed: the LLRs only read
    // alpha rows 0..k-1; the termination constraint enters via beta.)
    std::int16_t bn[8];
    std::copy(bn_init, bn_init + 8, bn);
    for (std::size_t t = k; t-- > 0;) {
        const std::int16_t *a = alpha + t * 8;
        const std::int16_t *row = gamma + t * 4;
        // g8[s]: metric of the input-0 branch out of state s.
        const std::int16_t g8[8] = {row[0], row[2], row[2], row[0],
                                    row[0], row[2], row[2], row[0]};
        std::int16_t m0[8], m1[8];
        for (int s = 0; s < 8; ++s) {
            m0[s] = sat16(g8[s] + bn[kNext0[s]]);
            m1[s] = sat16(bn[kNext1[s]] - g8[s]);
        }
        int best0 = kNegInf16, best1 = kNegInf16;
        for (int s = 0; s < 8; ++s) {
            const int c0 = sat16(a[s] + m0[s]);
            const int c1 = sat16(a[s] + m1[s]);
            best0 = c0 > best0 ? c0 : best0;
            best1 = c1 > best1 ? c1 : best1;
        }
        post[t] = static_cast<float>(best0 - best1) * invq;
        for (int s = 0; s < 8; ++s)
            bn[s] = m0[s] > m1[s] ? m0[s] : m1[s];
        if ((t & 7) == 0) {
            const std::int16_t norm = bn[0];
            for (int s = 0; s < 8; ++s)
                bn[s] = sat16(bn[s] - static_cast<int>(norm));
        }
    }
}

#if defined(LTE_SIMD_ENABLED)
/**
 * SIMD max-log-MAP pass: one v8s column per trellis time step — eight
 * saturating int16 state metrics in a single register, so the
 * recursion body is PADDSW/PSUBSW/PMAXSW plus fixed shuffles.
 *
 * The recursions are latency-bound — every step depends on the last —
 * so the pass is organised to keep that chain short and to overlap
 * what it can:
 *
 *  - branch metrics come from the quantized gamma rows: one 8-byte
 *    load plus shuffles, off the serial chain, leaving only
 *    permute+adds+max on it;
 *  - renormalization subtracts a broadcast of lane 0 (dup_lane0) and
 *    runs only every 8th step, so it barely touches the chain;
 *  - the forward (alpha) and backward (beta) recursions are
 *    independent until the LLR combine, so one fused loop advances
 *    both — two dependency chains in flight cover each other's
 *    latency;
 *  - once the backward chain crosses the midpoint it passes time
 *    steps whose alpha column is already on file, so the LLR combine
 *    happens in-loop, its `hmax` reductions filling the issue slots
 *    the latency chains leave idle; the first half's branch sums
 *    (m0/m1, already formed for the beta update) are staged to
 *    `stage` and combined in a short throughput-bound tail loop.
 */
void
map_pass_simd(std::size_t k, const std::int16_t *gamma,
              const std::int16_t bn_init[8], std::int16_t *alpha,
              std::int16_t *stage, float *post, float invq)
{
    using simd::v8s;

    alpha[0] = 0;
    for (int s = 1; s < 8; ++s)
        alpha[s] = kNegInf16;
    v8s a = v8s::load(alpha);
    v8s bn = v8s::load(bn_init);

    const std::size_t h = k / 2; // k is a multiple of 8
    for (std::size_t t = 0; t < h; ++t) {
        // Forward step t.
        const v8s pf = simd::load_fwd_metrics(gamma + t * 4);
        v8s an = v8smax(adds(dup_low_pairs(a), pf),
                        subs(dup_high_pairs(a), pf));
        if ((t & 7) == 7)
            an = subs(an, dup_lane0(an));
        an.store(alpha + (t + 1) * 8);
        a = an;

        // Backward step u (independent chain, same loop); stage the
        // branch sums for the tail combine.
        const std::size_t u = k - 1 - t;
        const v8s gb = simd::load_bwd_metrics(gamma + u * 4);
        const v8s m0 = adds(gb, perm_next0(bn));
        const v8s m1 = subs(perm_next1(bn), gb);
        m0.store(stage + (u - h) * 16);
        m1.store(stage + (u - h) * 16 + 8);
        bn = v8smax(m0, m1);
        if ((u & 7) == 0)
            bn = subs(bn, dup_lane0(bn));
    }
    for (std::size_t t = h; t < k; ++t) {
        const v8s pf = simd::load_fwd_metrics(gamma + t * 4);
        v8s an = v8smax(adds(dup_low_pairs(a), pf),
                        subs(dup_high_pairs(a), pf));
        if ((t & 7) == 7)
            an = subs(an, dup_lane0(an));
        an.store(alpha + (t + 1) * 8);
        a = an;

        // alpha[u] is on file for u < h: the LLR drops out in-loop.
        const std::size_t u = k - 1 - t;
        const v8s gb = simd::load_bwd_metrics(gamma + u * 4);
        const v8s m0 = adds(gb, perm_next0(bn));
        const v8s m1 = subs(perm_next1(bn), gb);
        const v8s au = v8s::load(alpha + u * 8);
        post[u] = static_cast<float>(
                      static_cast<int>(simd::hmax(adds(au, m0))) -
                      static_cast<int>(simd::hmax(adds(au, m1)))) *
                  invq;
        bn = v8smax(m0, m1);
        if ((u & 7) == 0)
            bn = subs(bn, dup_lane0(bn));
    }
    // Upper-half LLRs from the staged branch sums.
    for (std::size_t u = h; u < k; ++u) {
        const v8s au = v8s::load(alpha + u * 8);
        const v8s m0 = v8s::load(stage + (u - h) * 16);
        const v8s m1 = v8s::load(stage + (u - h) * 16 + 8);
        post[u] = static_cast<float>(
                      static_cast<int>(simd::hmax(adds(au, m0))) -
                      static_cast<int>(simd::hmax(adds(au, m1)))) *
                  invq;
    }
}
#endif // LTE_SIMD_ENABLED

void
map_pass(const float *sys, const float *par, std::size_t k,
         const float tail_sys[3], const float tail_par[3],
         std::int16_t *gamma, std::int16_t *alpha, std::int16_t *beta,
         float *post, bool force_scalar)
{
    const GammaScale sc =
        quantize_gamma_rows(sys, par, k, tail_sys, tail_par, gamma);
    std::int16_t bn[8];
    beta_init_q(tail_sys, tail_par, sc.q, bn);
#if defined(LTE_SIMD_ENABLED)
    if (!force_scalar) {
        map_pass_simd(k, gamma, bn, alpha, beta, post, sc.invq);
        return;
    }
#else
    (void)force_scalar;
    (void)beta;
#endif
    map_pass_scalar(k, gamma, bn, alpha, post, sc.invq);
}

} // namespace

TurboSegmentation
turbo_segment(std::size_t capacity)
{
    // Smallest block count whose equal-size constituent blocks fit the
    // trellis; K shrinks monotonically with n, so the first fit wins.
    for (std::size_t n = 1; n <= kMaxTurboCodeblocks; ++n) {
        const std::size_t per_block = capacity / n;
        if (per_block <= kTurboTailBits)
            break;
        std::size_t k = (per_block - kTurboTailBits) / 3;
        k -= k % 8;
        if (k == 0)
            break;
        if (k > kMaxTurboBlockBits)
            continue;
        if (n > 1 && k <= 24)
            break; // no room for CRC-24B plus data
        TurboSegmentation seg;
        seg.n_blocks = n;
        seg.block_info_bits = k;
        LTE_CHECK(seg.tb_bits() > 24,
                  "capacity too small for a transport block");
        return seg;
    }
    LTE_CHECK(false, "no turbo segmentation for this capacity");
    return {};
}

QppInterleaver::QppInterleaver(std::size_t k)
{
    LTE_CHECK(k >= 8 && k % 8 == 0,
              "QPP block size must be a positive multiple of 8");

    // Spec anchors (TS 36.212 Table 5.1.3-3).
    struct Anchor { std::size_t k; std::uint32_t f1, f2; };
    static constexpr Anchor anchors[] = {
        {40, 3, 10},
        {6144, 263, 480},
    };
    for (const auto &a : anchors) {
        if (a.k == k && qpp_is_bijection(k, a.f1, a.f2, perm_)) {
            f1_ = a.f1;
            f2_ = a.f2;
            return;
        }
    }

    // Deterministic search: smallest odd f1 coprime to k, then the
    // smallest non-trivial f2 making the polynomial a bijection with
    // useful adjacency spread (the spec's parameters all have good
    // spread; a naive smallest-f2 pick can map neighbours next to
    // each other, hurting the turbo code).
    const std::size_t min_spread =
        std::min<std::size_t>(k / 8, 32);
    for (std::uint64_t f1 = 3; f1 < k; f1 += 2) {
        if (gcd_u64(f1, k) != 1)
            continue;
        for (std::uint64_t f2 = 2; f2 < k; f2 += 2) {
            if (qpp_is_bijection(k, f1, f2, perm_) &&
                qpp_spread(k, perm_) >= min_spread) {
                f1_ = static_cast<std::uint32_t>(f1);
                f2_ = static_cast<std::uint32_t>(f2);
                return;
            }
        }
    }
    LTE_CHECK(false, "no QPP parameters found for this block size");
}

const QppInterleaver &
qpp_interleaver(std::size_t k)
{
    static std::mutex mutex;
    static std::unordered_map<std::size_t,
                              std::unique_ptr<QppInterleaver>> cache;
    std::scoped_lock lock(mutex);
    auto it = cache.find(k);
    if (it == cache.end())
        it = cache.emplace(k, std::make_unique<QppInterleaver>(k)).first;
    return *it->second;
}

std::vector<std::uint8_t>
turbo_encode(const std::vector<std::uint8_t> &info)
{
    const std::size_t k = info.size();
    LTE_CHECK(k >= 8 && k % 8 == 0,
              "turbo block size must be a positive multiple of 8");
    for (std::uint8_t b : info)
        LTE_CHECK(b <= 1, "bits must be 0 or 1");

    const QppInterleaver &pi = qpp_interleaver(k);
    std::vector<std::uint8_t> out;
    out.reserve(turbo_encoded_length(k));

    // Systematic part.
    out.insert(out.end(), info.begin(), info.end());

    // Parity of encoder 1.
    int s1 = 0;
    for (std::size_t i = 0; i < k; ++i) {
        int p;
        rsc_step(s1, info[i], p);
        out.push_back(static_cast<std::uint8_t>(p));
    }

    // Parity of encoder 2 (interleaved input).
    int s2 = 0;
    for (std::size_t i = 0; i < k; ++i) {
        int p;
        rsc_step(s2, info[pi.map(i)], p);
        out.push_back(static_cast<std::uint8_t>(p));
    }

    // Termination: 3 (x, z) pairs for each encoder.
    for (int *state : {&s1, &s2}) {
        for (int step = 0; step < 3; ++step) {
            const int c = tail_bit(*state);
            int p;
            rsc_step(*state, c, p);
            out.push_back(static_cast<std::uint8_t>(c));
            out.push_back(static_cast<std::uint8_t>(p));
        }
    }
    LTE_ASSERT(out.size() == turbo_encoded_length(k),
               "encoder output length mismatch");
    return out;
}

void
TurboWorkspace::reserve(std::size_t k)
{
    if (k <= block_capacity_)
        return;
    alpha.resize((k + 1) * 8);
    beta.resize(k * 8);
    gamma.resize(k * 4);
    sys.resize(k);
    par1.resize(k);
    par2.resize(k);
    sys_pi.resize(k);
    ext12.resize(k);
    ext21.resize(k);
    in.resize(k);
    post.resize(k);
    post_deint.resize(k);
    bits.resize(k);
    block_capacity_ = k;
}

TurboWorkspace &
turbo_scratch()
{
    thread_local TurboWorkspace ws;
    return ws;
}

void
warm_turbo_scratch()
{
    turbo_scratch().reserve(kMaxTurboBlockBits);
}

TurboDecodeResult
turbo_decode_block_into(LlrView coded, std::size_t k,
                        const QppInterleaver &pi,
                        const TurboDecoderConfig &cfg,
                        std::uint32_t crc_poly, TurboWorkspace &ws,
                        BitSpan out)
{
    LTE_CHECK(coded.size() == turbo_encoded_length(k),
              "LLR count does not match block size");
    LTE_CHECK(out.size() == k, "output span must hold k bits");
    LTE_CHECK(pi.size() == k, "interleaver size mismatch");
    ws.reserve(k);

    TurboDecodeResult result;
    if (cfg.iterations == 0) {
        // Degraded bypass: hard-decide the systematic positions only.
        for (std::size_t i = 0; i < k; ++i)
            out[i] = coded[i] >= 0.0f ? 0 : 1;
        if (crc_poly != 0)
            result.crc_ok = crc24_check(BitView(out.data(), k), crc_poly);
        return result;
    }

    // Split the coded stream; tail holds (x, z) x3 per encoder.
    for (std::size_t i = 0; i < k; ++i) {
        ws.sys[i] = coded[i];
        ws.par1[i] = coded[k + i];
        ws.par2[i] = coded[2 * k + i];
    }
    float tail_sys1[3], tail_par1[3], tail_sys2[3], tail_par2[3];
    const std::size_t tail_base = 3 * k;
    for (int i = 0; i < 3; ++i) {
        tail_sys1[i] = coded[tail_base + 2 * i];
        tail_par1[i] = coded[tail_base + 2 * i + 1];
        tail_sys2[i] = coded[tail_base + 6 + 2 * i];
        tail_par2[i] = coded[tail_base + 6 + 2 * i + 1];
    }
    for (std::size_t i = 0; i < k; ++i) {
        ws.sys_pi[i] = ws.sys[pi.map(i)];
        ws.ext21[i] = 0.0f;
    }

    for (std::size_t it = 0; it < cfg.iterations; ++it) {
        // Decoder 1: a priori from decoder 2 (deinterleaved).
        for (std::size_t i = 0; i < k; ++i)
            ws.in[i] = ws.sys[i] + ws.ext21[i];
        map_pass(ws.in.data(), ws.par1.data(), k, tail_sys1, tail_par1,
                 ws.gamma.data(), ws.alpha.data(), ws.beta.data(),
                 ws.post.data(), cfg.force_scalar);
        for (std::size_t i = 0; i < k; ++i)
            ws.ext12[i] =
                kExtrinsicScale * (ws.post[i] - ws.in[i]);

        // Decoder 2: a priori from decoder 1 (interleaved).
        for (std::size_t i = 0; i < k; ++i)
            ws.in[i] = ws.sys_pi[i] + ws.ext12[pi.map(i)];
        map_pass(ws.in.data(), ws.par2.data(), k, tail_sys2, tail_par2,
                 ws.gamma.data(), ws.alpha.data(), ws.beta.data(),
                 ws.post.data(), cfg.force_scalar);
        for (std::size_t i = 0; i < k; ++i) {
            ws.ext21[pi.map(i)] =
                kExtrinsicScale * (ws.post[i] - ws.in[i]);
            ws.post_deint[pi.map(i)] = ws.post[i];
        }
        result.iterations_run = static_cast<std::uint32_t>(it + 1);

        // CRC early termination: decide and check after every full
        // iteration; a pass means further iterations cannot improve
        // the (already correct) transport of this block.
        if (crc_poly != 0) {
            for (std::size_t i = 0; i < k; ++i)
                ws.bits[i] = ws.post_deint[i] >= 0.0f ? 0 : 1;
            if (crc24_check(BitView(ws.bits.data(), k), crc_poly)) {
                result.crc_ok = true;
                break;
            }
        }
    }

    // Decide from the last half-iteration's full posterior.
    for (std::size_t i = 0; i < k; ++i)
        out[i] = ws.post_deint[i] >= 0.0f ? 0 : 1;
    return result;
}

void
turbo_passthrough_into(LlrView llrs, BitSpan out)
{
    hard_decision_into(llrs, out);
}

} // namespace lte::phy
