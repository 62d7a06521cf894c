// Dense matrix and vector primitives used by the Markov and RBD engines.
//
// Generators, the GTH elimination's input and the transient path are CSR
// (csr.hpp); this header holds the vector type and its norms, plus a small
// row-major dense matrix that CsrMatrix::to_dense produces for inspection
// and tests.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace rascad::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construct from an initializer-list of rows; all rows must have equal
  /// length. Throws std::invalid_argument on ragged input.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access. Throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

double dot(const Vector& a, const Vector& b);
double norm1(const Vector& v) noexcept;
double norm2(const Vector& v) noexcept;
double norm_inf(const Vector& v) noexcept;
double sum(const Vector& v) noexcept;

/// v += alpha * w (axpy). Throws std::invalid_argument on size mismatch.
void axpy(double alpha, const Vector& w, Vector& v);

/// v *= alpha.
void scale(Vector& v, double alpha) noexcept;

/// Normalize v so its entries sum to one. Throws std::domain_error if the
/// sum is not strictly positive.
void normalize_sum(Vector& v);

}  // namespace rascad::linalg
