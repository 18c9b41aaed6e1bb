/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the benchmark (input parameter model,
 * channel realisations, work-stealing victim selection) draws from an
 * explicitly seeded Rng so full runs are bit-reproducible across
 * machines — a requirement for the serial-vs-parallel validation of
 * Sec. IV-D of the paper.
 */
#ifndef LTE_COMMON_RNG_HPP
#define LTE_COMMON_RNG_HPP

#include <cstdint>

namespace lte {

/**
 * xoshiro256** generator (Blackman & Vigna) seeded via splitmix64.
 *
 * Chosen over std::mt19937 because its output sequence is fully
 * specified here (libstdc++ distributions are not portable), it is
 * cheap, and it passes BigCrush.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t next_u64();

    /** @return a uniform double in [0, 1). Matches the paper's random(). */
    double next_double();

    /** @return a uniform integer in [0, bound) using rejection sampling. */
    std::uint64_t next_below(std::uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t next_in(std::int64_t lo, std::int64_t hi);

    /** @return true with probability p (clamped to [0, 1]). */
    bool next_bool(double p);

    /**
     * @return a standard normal sample (Box-Muller; one value per call,
     * the pair partner is cached).
     */
    double next_gaussian();

    /** Derive an independent child generator (for per-thread streams). */
    Rng split();

  private:
    std::uint64_t s_[4];
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

/**
 * Canonical per-cell seed derivation: every component that owns a cell
 * RNG stream (input pools, per-cell parameter models) derives its
 * effective seed from the master seed through this one function, so
 * "same master seed + same cell id" yields the same stream no matter
 * how many cells run beside it or which engine drives them.
 *
 * Cell 1 (the single-cell default) maps to the master seed itself,
 * keeping 1-cell runs bit-identical to the pre-multi-cell engines;
 * other cells get a splitmix64-style finalised mix.
 */
inline std::uint64_t
cell_stream_seed(std::uint64_t master, std::uint32_t cell_id)
{
    if (cell_id <= 1)
        return master;
    std::uint64_t z =
        master ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(cell_id));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace lte

#endif // LTE_COMMON_RNG_HPP
