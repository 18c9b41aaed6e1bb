#include "phy/interleaver.hpp"

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace lte::phy {

void
interleave_permutation_into(std::size_t n, std::size_t columns,
                            std::span<std::size_t> out)
{
    LTE_CHECK(columns >= 1, "need at least one column");
    LTE_CHECK(out.size() == n, "permutation buffer length mismatch");
    const std::size_t rows = ceil_div(n, columns);
    // Read column-wise from a row-wise-written rows x columns matrix,
    // skipping the padding cells of a ragged final row.
    std::size_t i = 0;
    for (std::size_t c = 0; c < columns; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t src = r * columns + c;
            if (src < n)
                out[i++] = src;
        }
    }
}

std::vector<std::size_t>
interleave_permutation(std::size_t n, std::size_t columns)
{
    std::vector<std::size_t> perm(n);
    interleave_permutation_into(n, columns, perm);
    return perm;
}

void
deinterleave_into(CfView in, std::span<const std::size_t> perm, CfSpan out)
{
    LTE_CHECK(in.size() == perm.size() && out.size() == perm.size(),
              "deinterleave length mismatch");
    for (std::size_t i = 0; i < in.size(); ++i)
        out[perm[i]] = in[i];
}

CVec
interleave(const CVec &in, std::size_t columns)
{
    const auto perm = interleave_permutation(in.size(), columns);
    CVec out(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = in[perm[i]];
    return out;
}

} // namespace lte::phy
