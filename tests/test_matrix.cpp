/**
 * @file
 * Tests for FixedCMat, the stack-only complex matrix the MMSE
 * combiner solves with (suite `CMat`): shape checks, products,
 * Hermitian transpose, and Gauss-Jordan inversion at every size the
 * combiner uses (1..kMaxDim), including the MMSE-style
 * H^H H + sigma^2 I pattern.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <stdexcept>

#include "common/rng.hpp"
#include "matrix/fixed_cmat.hpp"

namespace lte::matrix {
namespace {

FixedCMat
random_matrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    FixedCMat m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
            m.at(i, j) = cf32(static_cast<float>(rng.next_gaussian()),
                              static_cast<float>(rng.next_gaussian()));
        }
    }
    return m;
}

/** An r x c matrix filled row-major from @p values. */
FixedCMat
from_rows(std::size_t r, std::size_t c, std::initializer_list<cf32> values)
{
    FixedCMat m(r, c);
    auto it = values.begin();
    for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j)
            m.at(i, j) = *it++;
    }
    return m;
}

/** Largest element-wise magnitude difference of two same-shape
 *  matrices. */
float
max_abs_diff(const FixedCMat &a, const FixedCMat &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    float worst = 0.0f;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j)
            worst = std::max(worst, std::abs(a.at(i, j) - b.at(i, j)));
    }
    return worst;
}

TEST(CMat, ZeroInitialised)
{
    FixedCMat m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_EQ(m.at(r, c), cf32(0.0f, 0.0f));
    }
}

TEST(CMat, RejectsDimensionsAboveCapacity)
{
    EXPECT_THROW(FixedCMat(FixedCMat::kMaxDim + 1, 1),
                 std::invalid_argument);
    EXPECT_THROW(FixedCMat(1, FixedCMat::kMaxDim + 1),
                 std::invalid_argument);
}

TEST(CMat, IdentityTimesAnythingIsIdentity)
{
    const FixedCMat a = random_matrix(4, 4, 1);
    const FixedCMat i = FixedCMat::identity(4);
    EXPECT_LT(max_abs_diff(i.mul(a), a), 1e-6f);
    EXPECT_LT(max_abs_diff(a.mul(i), a), 1e-6f);
}

TEST(CMat, MulShapeMismatchThrows)
{
    const FixedCMat a(2, 3), b(2, 3);
    EXPECT_THROW(a.mul(b), std::invalid_argument);
}

TEST(CMat, KnownProduct)
{
    // [1 i; 0 2] * [1; 1] = [1+i; 2]
    const FixedCMat a =
        from_rows(2, 2, {cf32(1, 0), cf32(0, 1), cf32(0, 0), cf32(2, 0)});
    const FixedCMat v = a.mul(from_rows(2, 1, {cf32(1, 0), cf32(1, 0)}));
    ASSERT_EQ(v.rows(), 2u);
    ASSERT_EQ(v.cols(), 1u);
    EXPECT_NEAR(std::abs(v.at(0, 0) - cf32(1, 1)), 0.0f, 1e-6f);
    EXPECT_NEAR(std::abs(v.at(1, 0) - cf32(2, 0)), 0.0f, 1e-6f);
}

TEST(CMat, HermitianConjugatesAndTransposes)
{
    const FixedCMat a = from_rows(1, 2, {cf32(1, 2), cf32(3, -4)});
    const FixedCMat h = a.hermitian();
    EXPECT_EQ(h.rows(), 2u);
    EXPECT_EQ(h.cols(), 1u);
    EXPECT_EQ(h.at(0, 0), cf32(1, -2));
    EXPECT_EQ(h.at(1, 0), cf32(3, 4));
}

TEST(CMat, HermitianOfProductRule)
{
    const FixedCMat a = random_matrix(3, 4, 2);
    const FixedCMat b = random_matrix(4, 2, 3);
    // (AB)^H == B^H A^H
    const FixedCMat lhs = a.mul(b).hermitian();
    const FixedCMat rhs = b.hermitian().mul(a.hermitian());
    EXPECT_LT(max_abs_diff(lhs, rhs), 1e-4f);
}

class InverseSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(InverseSizeTest, InverseTimesSelfIsIdentity)
{
    const std::size_t n = GetParam();
    // Diagonal loading guarantees the random matrix is invertible.
    const FixedCMat a =
        random_matrix(n, n, 40 + n).add_scaled_identity(4.0f);
    const FixedCMat prod = a.mul(a.inverse());
    EXPECT_LT(max_abs_diff(prod, FixedCMat::identity(n)), 1e-3f)
        << "n=" << n;
}

TEST_P(InverseSizeTest, MmsePatternIsInvertible)
{
    const std::size_t n = GetParam();
    // H^H H + sigma^2 I with H = antennas x layers at the combiner's
    // full antenna count, the exact combiner-weight shape.
    const FixedCMat h = random_matrix(FixedCMat::kMaxDim, n, 70 + n);
    const FixedCMat gram =
        h.hermitian().mul(h).add_scaled_identity(0.1f);
    const FixedCMat prod = gram.mul(gram.inverse());
    EXPECT_LT(max_abs_diff(prod, FixedCMat::identity(n)), 5e-3f)
        << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, InverseSizeTest,
                         ::testing::Values<std::size_t>(1, 2, 3, 4),
                         [](const auto &info) {
                             return "n" + std::to_string(info.param);
                         });

TEST(CMat, SingularMatrixThrows)
{
    const FixedCMat a =
        from_rows(2, 2, {cf32(1, 0), cf32(2, 0), cf32(2, 0), cf32(4, 0)});
    EXPECT_THROW(a.inverse(), std::invalid_argument);
}

TEST(CMat, InverseRequiresSquare)
{
    const FixedCMat a(2, 3);
    EXPECT_THROW(a.inverse(), std::invalid_argument);
}

TEST(CMat, SolveRecoversKnownVector)
{
    // x = A^-1 (A x), the inverse-then-multiply shape of W = G^-1 H^H.
    const FixedCMat a = random_matrix(4, 4, 5).add_scaled_identity(3.0f);
    const FixedCMat x = random_matrix(4, 1, 6);
    const FixedCMat solved = a.inverse().mul(a.mul(x));
    EXPECT_LT(max_abs_diff(solved, x), 1e-3f);
}

TEST(CMat, PivotingHandlesZeroLeadingDiagonal)
{
    // Leading diagonal entry zero: inversion must survive via pivoting.
    const FixedCMat a =
        from_rows(2, 2, {cf32(0, 0), cf32(1, 0), cf32(1, 0), cf32(0, 0)});
    EXPECT_LT(max_abs_diff(a.mul(a.inverse()), FixedCMat::identity(2)),
              1e-6f);
}

TEST(CMat, AddScaledIdentityRequiresSquare)
{
    const FixedCMat a(2, 3);
    EXPECT_THROW(a.add_scaled_identity(1.0f), std::invalid_argument);
}

} // namespace
} // namespace lte::matrix
