#include "linalg/dense.hpp"

#include <cmath>
#include <numeric>
#include <ostream>

namespace rascad::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix::DenseMatrix(
    std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("DenseMatrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& DenseMatrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("DenseMatrix::at: index out of range");
  }
  return (*this)(r, c);
}

double DenseMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("DenseMatrix::at: index out of range");
  }
  return (*this)(r, c);
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

DenseMatrix& DenseMatrix::operator+=(const DenseMatrix& rhs) {
  if (!same_shape(rhs)) {
    throw std::invalid_argument("DenseMatrix::operator+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

DenseMatrix& DenseMatrix::operator-=(const DenseMatrix& rhs) {
  if (!same_shape(rhs)) {
    throw std::invalid_argument("DenseMatrix::operator-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

DenseMatrix& DenseMatrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("DenseMatrix::operator*: shape mismatch");
  }
  DenseMatrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.row_data(k);
      double* crow = c.row_data(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

std::ostream& operator<<(std::ostream& os, const DenseMatrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << '[';
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << (c ? ", " : "") << m(r, c);
    }
    os << "]\n";
  }
  return os;
}

Vector mat_vec(const DenseMatrix& a, const Vector& x) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("mat_vec: shape mismatch");
  }
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_data(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector mat_transpose_vec(const DenseMatrix& a, const Vector& x) {
  if (a.rows() != x.size()) {
    throw std::invalid_argument("mat_transpose_vec: shape mismatch");
  }
  Vector y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_data(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  return std::inner_product(a.begin(), a.end(), b.begin(), 0.0);
}

double norm1(const Vector& v) noexcept {
  double s = 0.0;
  for (double x : v) s += std::abs(x);
  return s;
}

double norm2(const Vector& v) noexcept {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double norm_inf(const Vector& v) noexcept {
  double s = 0.0;
  for (double x : v) s = std::max(s, std::abs(x));
  return s;
}

double sum(const Vector& v) noexcept {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void axpy(double alpha, const Vector& w, Vector& v) {
  if (v.size() != w.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += alpha * w[i];
}

void scale(Vector& v, double alpha) noexcept {
  for (double& x : v) x *= alpha;
}

void normalize_sum(Vector& v) {
  const double s = sum(v);
  if (!(s > 0.0)) {
    throw std::domain_error("normalize_sum: vector sum is not positive");
  }
  scale(v, 1.0 / s);
}

}  // namespace rascad::linalg
