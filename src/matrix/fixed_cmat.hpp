/**
 * @file
 * Fixed-capacity dense complex matrix for the per-subcarrier MMSE
 * combiner algebra, the library's only matrix type (header-only).
 * LTE-Advanced uplink matrices never exceed antennas x layers = 4 x 4,
 * so the storage lives entirely on the stack: the hot combiner-weight
 * loop runs one of these per subcarrier with zero heap traffic.
 *
 * inverse() is Gauss-Jordan elimination with partial pivoting; its
 * float-op order is part of the pinned digests.  The scalar combiner
 * and the SIMD path's tail subcarriers solve through it; the SIMD
 * path's lane-parallel solve (solve_lanes in phy/combiner.cpp) repeats
 * the same operations in the same order, so any change here must be
 * mirrored there.
 */
#ifndef LTE_MATRIX_FIXED_CMAT_HPP
#define LTE_MATRIX_FIXED_CMAT_HPP

#include <array>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "common/types.hpp"

namespace lte::matrix {

class FixedCMat
{
  public:
    /** Maximum rows/cols (LTE-A uplink: 4 antennas x 4 layers). */
    static constexpr std::size_t kMaxDim = 4;

    FixedCMat() = default;

    /** A rows x cols matrix of zeros. */
    FixedCMat(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols)
    {
        LTE_CHECK(rows <= kMaxDim && cols <= kMaxDim,
                  "FixedCMat dimension exceeds kMaxDim");
        a_.fill(cf32(0.0f, 0.0f));
    }

    /** The n x n identity. */
    static FixedCMat
    identity(std::size_t n)
    {
        FixedCMat m(n, n);
        for (std::size_t i = 0; i < n; ++i)
            m.at(i, i) = cf32(1.0f, 0.0f);
        return m;
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    cf32 &at(std::size_t r, std::size_t c) { return a_[r * cols_ + c]; }
    const cf32 &
    at(std::size_t r, std::size_t c) const
    {
        return a_[r * cols_ + c];
    }

    /** Conjugate transpose. */
    FixedCMat
    hermitian() const
    {
        FixedCMat out(cols_, rows_);
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c)
                out.at(c, r) = std::conj(at(r, c));
        }
        return out;
    }

    /** Matrix product this * rhs. */
    FixedCMat
    mul(const FixedCMat &rhs) const
    {
        LTE_CHECK(cols_ == rhs.rows_, "shape mismatch in mul");
        FixedCMat out(rows_, rhs.cols_);
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < rhs.cols_; ++c) {
                cf32 acc(0.0f, 0.0f);
                for (std::size_t k = 0; k < cols_; ++k)
                    acc += at(r, k) * rhs.at(k, c);
                out.at(r, c) = acc;
            }
        }
        return out;
    }

    /** this + s*I (square only); MMSE diagonal loading. */
    FixedCMat
    add_scaled_identity(float s) const
    {
        LTE_CHECK(rows_ == cols_, "square matrix required");
        FixedCMat out = *this;
        for (std::size_t i = 0; i < rows_; ++i)
            out.at(i, i) += cf32(s, 0.0f);
        return out;
    }

    /**
     * Inverse via Gauss-Jordan elimination with partial pivoting.
     * @throws std::invalid_argument if singular to working precision.
     */
    FixedCMat
    inverse() const
    {
        LTE_CHECK(rows_ == cols_, "square matrix required");
        const std::size_t n = rows_;
        FixedCMat a = *this;
        FixedCMat inv = identity(n);

        for (std::size_t col = 0; col < n; ++col) {
            std::size_t pivot = col;
            float best = std::abs(a.at(col, col));
            for (std::size_t r = col + 1; r < n; ++r) {
                const float mag = std::abs(a.at(r, col));
                if (mag > best) {
                    best = mag;
                    pivot = r;
                }
            }
            LTE_CHECK(best > 1e-20f, "matrix is singular");
            if (pivot != col) {
                for (std::size_t c = 0; c < n; ++c) {
                    std::swap(a.at(col, c), a.at(pivot, c));
                    std::swap(inv.at(col, c), inv.at(pivot, c));
                }
            }

            const cf32 scale = cf32(1.0f, 0.0f) / a.at(col, col);
            for (std::size_t c = 0; c < n; ++c) {
                a.at(col, c) *= scale;
                inv.at(col, c) *= scale;
            }

            for (std::size_t r = 0; r < n; ++r) {
                if (r == col)
                    continue;
                const cf32 factor = a.at(r, col);
                if (factor == cf32(0.0f, 0.0f))
                    continue;
                for (std::size_t c = 0; c < n; ++c) {
                    a.at(r, c) -= factor * a.at(col, c);
                    inv.at(r, c) -= factor * inv.at(col, c);
                }
            }
        }
        return inv;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::array<cf32, kMaxDim * kMaxDim> a_{};
};

} // namespace lte::matrix

#endif // LTE_MATRIX_FIXED_CMAT_HPP
