#include "common/rng.hpp"

#include <cmath>

namespace lte {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::next_double()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    if (bound <= 1)
        return 0;
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    std::uint64_t v;
    do {
        v = next_u64();
    } while (v >= limit);
    return v % bound;
}

std::int64_t
Rng::next_in(std::int64_t lo, std::int64_t hi)
{
    if (hi <= lo)
        return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
}

bool
Rng::next_bool(double p)
{
    return next_double() < p;
}

double
Rng::next_gaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1;
    do {
        u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi = 6.283185307179586476925286766559;
    cached_gaussian_ = mag * std::sin(two_pi * u2);
    has_cached_gaussian_ = true;
    return mag * std::cos(two_pi * u2);
}

Rng
Rng::split()
{
    return Rng(next_u64());
}

} // namespace lte
