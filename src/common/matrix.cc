#include "common/matrix.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mapp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double&
Matrix::operator()(std::size_t r, std::size_t c)
{
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
}

std::vector<double>
Matrix::row(std::size_t r) const
{
    assert(r < rows_);
    return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

std::vector<double>
Matrix::col(std::size_t c) const
{
    assert(c < cols_);
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        out[r] = (*this)(r, c);
    return out;
}

Matrix
Matrix::operator*(const Matrix& rhs) const
{
    if (cols_ != rhs.rows_)
        throw std::invalid_argument("Matrix multiply: dimension mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double aik = (*this)(i, k);
            if (aik == 0.0)
                continue;
            for (std::size_t j = 0; j < rhs.cols_; ++j)
                out(i, j) += aik * rhs(k, j);
        }
    }
    return out;
}

Matrix
Matrix::operator+(const Matrix& rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix add: dimension mismatch");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] += rhs.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix& rhs) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix subtract: dimension mismatch");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] -= rhs.data_[i];
    return out;
}

Matrix
Matrix::operator*(double scalar) const
{
    Matrix out = *this;
    for (auto& v : out.data_)
        v *= scalar;
    return out;
}

std::vector<double>
Matrix::operator*(const std::vector<double>& v) const
{
    if (v.size() != cols_)
        throw std::invalid_argument("Matrix-vector: dimension mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out[r] += (*this)(r, c) * v[c];
    return out;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed;
    for (std::size_t r = 0; r < rows_; ++r) {
        os << "[ ";
        for (std::size_t c = 0; c < cols_; ++c)
            os << (*this)(r, c) << ' ';
        os << "]\n";
    }
    return os.str();
}

namespace linalg {

std::vector<double>
solve(Matrix a, std::vector<double> b)
{
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n)
        throw std::invalid_argument("solve: need square system");

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::abs(a(r, col)) > std::abs(a(pivot, col)))
                pivot = r;
        if (std::abs(a(pivot, col)) < 1e-12)
            throw std::runtime_error("solve: singular matrix");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a(col, c), a(pivot, c));
            std::swap(b[col], b[pivot]);
        }
        // Eliminate below.
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a(r, col) / a(col, col);
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a(r, c) -= factor * a(col, c);
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= a(i, c) * x[c];
        x[i] = acc / a(i, i);
    }
    return x;
}

Matrix
cholesky(const Matrix& a)
{
    const std::size_t n = a.rows();
    if (a.cols() != n)
        throw std::invalid_argument("cholesky: need square matrix");
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l(i, k) * l(j, k);
            if (i == j) {
                if (acc <= 0.0)
                    throw std::runtime_error(
                        "cholesky: matrix not positive definite");
                l(i, j) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return l;
}

std::vector<double>
solveSpd(const Matrix& a, const std::vector<double>& b)
{
    const Matrix l = cholesky(a);
    const std::size_t n = a.rows();
    // Forward substitution: L y = b.
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l(i, k) * y[k];
        y[i] = acc / l(i, i);
    }
    // Back substitution: L^T x = y.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = y[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= l(k, i) * x[k];
        x[i] = acc / l(i, i);
    }
    return x;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    assert(a.size() == b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

double
norm(const std::vector<double>& a)
{
    return std::sqrt(dot(a, a));
}

}  // namespace linalg

}  // namespace mapp
