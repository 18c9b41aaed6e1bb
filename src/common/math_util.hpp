/**
 * @file
 * Small numeric helpers shared across modules.
 */
#ifndef LTE_COMMON_MATH_UTIL_HPP
#define LTE_COMMON_MATH_UTIL_HPP

#include <cmath>
#include <cstddef>

namespace lte {

/** Convert a linear power ratio to decibels. */
inline double
to_db(double linear)
{
    return 10.0 * std::log10(linear);
}

/** Convert decibels to a linear power ratio. */
inline double
from_db(double db)
{
    return std::pow(10.0, db / 10.0);
}

/** @return the smallest power of two >= n (n >= 1). */
constexpr std::size_t
next_pow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/** @return true if n is composed only of factors 2, 3, and 5. */
inline bool
is_5_smooth(std::size_t n)
{
    if (n == 0)
        return false;
    for (std::size_t f : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
        while (n % f == 0)
            n /= f;
    }
    return n == 1;
}

/** Integer ceiling division for non-negative operands. */
inline std::size_t
ceil_div(std::size_t a, std::size_t b)
{
    return (a + b - 1) / b;
}

} // namespace lte

#endif // LTE_COMMON_MATH_UTIL_HPP
