/** @file Unit tests for the dense matrix kit and linear solvers. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/matrix.h"

namespace {

using mapp::Matrix;
namespace linalg = mapp::linalg;

/** The transpose, as the Cholesky reconstruction's oracle. */
Matrix
transposed(const Matrix& m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
}

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, InitializerListLayout)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows)
{
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplicationIsNoop)
{
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Matrix i = Matrix::identity(2);
    const Matrix prod = a * i;
    EXPECT_DOUBLE_EQ(prod(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(prod(1, 1), 4.0);
}

TEST(Matrix, MultiplyKnownResult)
{
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows)
{
    const Matrix a(2, 3);
    const Matrix b(2, 3);
    EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, AddSubtractScale)
{
    const Matrix a{{1.0, 2.0}};
    const Matrix b{{3.0, 5.0}};
    EXPECT_DOUBLE_EQ((a + b)(0, 1), 7.0);
    EXPECT_DOUBLE_EQ((b - a)(0, 0), 2.0);
    EXPECT_DOUBLE_EQ((a * 3.0)(0, 1), 6.0);
}

TEST(Matrix, MatrixVectorProduct)
{
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const std::vector<double> x{1.0, 1.0};
    const auto y = a * x;
    EXPECT_DOUBLE_EQ(y[0], 3.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, RowAndColExtraction)
{
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(a.row(1), (std::vector<double>{3.0, 4.0}));
    EXPECT_EQ(a.col(0), (std::vector<double>{1.0, 3.0}));
}

TEST(Linalg, SolveWellConditioned)
{
    const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    const std::vector<double> b{3.0, 5.0};
    const auto x = linalg::solve(a, b);
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Linalg, SolveNeedsPivoting)
{
    // Leading zero forces a row swap.
    const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
    const std::vector<double> b{2.0, 3.0};
    const auto x = linalg::solve(a, b);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Linalg, SolveSingularThrows)
{
    const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    const std::vector<double> b{1.0, 2.0};
    EXPECT_THROW(linalg::solve(a, b), std::runtime_error);
}

TEST(Linalg, CholeskyFactorReconstructs)
{
    const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    const Matrix l = linalg::cholesky(a);
    const Matrix recon = l * transposed(l);
    EXPECT_NEAR(recon(0, 0), 4.0, 1e-12);
    EXPECT_NEAR(recon(0, 1), 2.0, 1e-12);
    EXPECT_NEAR(recon(1, 1), 3.0, 1e-12);
}

TEST(Linalg, CholeskyRejectsIndefinite)
{
    const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
    EXPECT_THROW(linalg::cholesky(a), std::runtime_error);
}

TEST(Linalg, SolveSpdMatchesGaussian)
{
    const Matrix a{{5.0, 2.0, 1.0}, {2.0, 6.0, 2.0}, {1.0, 2.0, 7.0}};
    const std::vector<double> b{1.0, 2.0, 3.0};
    const auto x1 = linalg::solveSpd(a, b);
    const auto x2 = linalg::solve(a, b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Linalg, DotAndNorm)
{
    const std::vector<double> a{1.0, 2.0, 2.0};
    const std::vector<double> b{2.0, 0.0, 1.0};
    EXPECT_DOUBLE_EQ(linalg::dot(a, b), 4.0);
    EXPECT_DOUBLE_EQ(linalg::norm(a), 3.0);
}

}  // namespace
