/**
 * @file
 * Complex FFT library used by every frequency/time transform in the
 * receiver (Fig. 2/3 of the paper): mixed-radix Cooley-Tukey for sizes
 * whose prime factors are small, with a Bluestein (chirp-z) fallback
 * for arbitrary sizes.  LTE DFT-s-OFDM allocations are 12 x PRBs
 * subcarriers, so non-5-smooth sizes occur routinely.
 */
#ifndef LTE_FFT_FFT_HPP
#define LTE_FFT_FFT_HPP

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace lte::fft {

/**
 * A planned complex FFT of a fixed size.
 *
 * A mixed-radix plan compiles the Cooley-Tukey factorisation once: a
 * top-down list of levels (radix p, sub-transform length m, block
 * count), the prime base length L with its leaf matrix
 * W[j*L + k] = W_L^(j*k), a table mapping each input residue to the
 * output offset of its leaf DFT, and one contiguous twiddle table per
 * level in each direction.  A transform runs breadth-first: all n/L
 * leaf DFTs, then each level's combine across all of its blocks,
 * bottom-up.  Bluestein sizes precompute the chirp sequence and its
 * transform instead.  forward() computes the unnormalised DFT;
 * inverse() applies the 1/N scale so that inverse(forward(x)) == x.
 *
 * In SIMD builds the leaf DFTs and every combine vectorize over kLanes
 * output bins or columns of one block while a full vector fits, and
 * run the remaining bins or columns with one block per lane.  Every
 * lane does a scalar column's arithmetic: the same factor order, the
 * same per-output accumulation order, the same twiddle values and no
 * FMA, so outputs are bit for bit those of the scalar formulation in
 * the same factor order.
 *
 * Plans are immutable after construction, and both transform methods
 * are const and safe to call concurrently from multiple threads.
 *
 * Transforms come in two flavours: the span overloads take a caller
 * provided scratch buffer of at least scratch_size() samples and never
 * touch the heap, which the subframe hot path relies on; the two-arg
 * overloads fall back to a per-thread scratch vector that grows to the
 * largest size seen (allocation-free once warm, but not guaranteed so
 * on a cold thread).
 */
class Fft
{
  public:
    /** Plan a transform of @p n points (n >= 1). */
    explicit Fft(std::size_t n);
    ~Fft();

    Fft(const Fft &) = delete;
    Fft &operator=(const Fft &) = delete;

    /** Transform size. */
    std::size_t size() const;

    /**
     * Scratch samples the span overloads need: n for mixed-radix sizes
     * (used only when in == out), 2x the convolution length for
     * Bluestein sizes.  Constant per plan, so workspaces can size
     * scratch once up front.
     */
    std::size_t scratch_size() const;

    /** Unnormalised forward DFT. @p in and @p out must hold size() samples
     *  and may alias. */
    void forward(const cf32 *in, cf32 *out) const;

    /** Inverse DFT including the 1/N normalisation. May alias. */
    void inverse(const cf32 *in, cf32 *out) const;

    /** Heap-free forward DFT; @p scratch needs >= scratch_size()
     *  samples and must not overlap in/out. */
    void forward(const cf32 *in, cf32 *out, CfSpan scratch) const;

    /** Heap-free inverse DFT (with 1/N scale); same scratch contract. */
    void inverse(const cf32 *in, cf32 *out, CfSpan scratch) const;

    /**
     * Analytical floating-point operation count of one transform of
     * size @p n under this library's algorithm choices (including the
     * direct-DFT/Bluestein cliffs at sizes with large prime factors).
     */
    static std::uint64_t op_count(std::size_t n);

    /**
     * Smooth-envelope operation count: the cost of transforming the
     * next 5-smooth size >= @p n, i.e. of an implementation that pads
     * awkward sizes the way production SC-FDMA receivers do.  The
     * simulator's cycle-cost model uses this (DESIGN.md Sec. 3) so
     * that workload scales linearly in PRBs, matching the clean
     * linear behaviour the paper measures in Fig. 11.
     */
    static std::uint64_t op_count_smooth(std::size_t n);

    /** The smallest integer >= n whose prime factors are all in
     *  {2, 3, 5}. */
    static std::size_t next_5_smooth(std::size_t n);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Process-wide cache of FFT plans keyed by size.
 *
 * Subframe processing repeatedly needs the same handful of sizes; the
 * cache makes plan lookup cheap and thread-safe (worker threads share
 * plans, which are themselves const-thread-safe).
 *
 * Lookup is layered: plan() first probes a per-thread direct-mapped
 * table (no locking, no atomics, no heap), and only on a miss falls
 * back to the shared map.  The shared map is guarded by a
 * std::shared_mutex so that concurrent misses from different threads
 * still proceed in parallel when the plan exists.
 *
 * Regression note: this cache used to hold a plain std::mutex around
 * every lookup, which serialised all workers on the hot path — each
 * IFFT/FFT in channel estimation and SC-FDMA despreading took the
 * global lock, and profiles showed the lock dominating at high worker
 * counts.  Do not reintroduce a exclusive-locked lookup here; the
 * per-thread table plus reader-shared fallback exists precisely to
 * keep plan lookup off the contention path.
 */
class FftCache
{
  public:
    /** The singleton cache instance. */
    static FftCache &instance();

    /**
     * @return a reference to the plan for size @p n, creating it if
     * needed.  Plans live for the lifetime of the process (the cache
     * never evicts), so the reference is permanently valid.  Hot-path
     * lookups hit a per-thread table and are lock- and heap-free.
     */
    const Fft &plan(std::size_t n);

  private:
    FftCache() = default;

    /** Shared-map lookup backing the per-thread table. */
    const Fft *lookup_shared(std::size_t n);

    mutable std::shared_mutex mutex_;
    std::unordered_map<std::size_t, std::unique_ptr<const Fft>> plans_;
};

} // namespace lte::fft

#endif // LTE_FFT_FFT_HPP
