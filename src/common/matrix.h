/**
 * @file
 * A small dense linear-algebra kit: the Matrix class plus the solvers the
 * ML library needs (Gaussian elimination with partial pivoting, Cholesky
 * for ridge-regularized normal equations). This is intentionally simple
 * and allocation-friendly rather than tuned; matrices in this project are
 * tiny (tens of rows/columns).
 */

#ifndef MAPP_COMMON_MATRIX_H
#define MAPP_COMMON_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace mapp {

/** A dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** An empty 0x0 matrix. */
    Matrix() = default;

    /** A rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Build from nested initializer lists; all rows must be equal size. */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** The n x n identity. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Element access (unchecked in release builds). */
    double& operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /** One row as a vector copy. */
    std::vector<double> row(std::size_t r) const;

    /** One column as a vector copy. */
    std::vector<double> col(std::size_t c) const;

    Matrix operator*(const Matrix& rhs) const;
    Matrix operator+(const Matrix& rhs) const;
    Matrix operator-(const Matrix& rhs) const;
    Matrix operator*(double scalar) const;

    /** Matrix-vector product. */
    std::vector<double> operator*(const std::vector<double>& v) const;

    /** Human-readable rendering for debugging. */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

namespace linalg {

/**
 * Solve A x = b by Gaussian elimination with partial pivoting.
 *
 * @throws std::runtime_error if A is singular (pivot below 1e-12).
 */
std::vector<double> solve(Matrix a, std::vector<double> b);

/**
 * Cholesky factorization of a symmetric positive-definite matrix;
 * returns the lower-triangular factor L with A = L L^T.
 *
 * @throws std::runtime_error if A is not positive definite.
 */
Matrix cholesky(const Matrix& a);

/** Solve A x = b given A SPD, via Cholesky. */
std::vector<double> solveSpd(const Matrix& a, const std::vector<double>& b);

/** Dot product of equal-length vectors. */
double dot(const std::vector<double>& a, const std::vector<double>& b);

/** Euclidean norm. */
double norm(const std::vector<double>& a);

}  // namespace linalg

}  // namespace mapp

#endif  // MAPP_COMMON_MATRIX_H
