// Unit tests for the dense/sparse linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"

namespace {

using rascad::linalg::CsrBuilder;
using rascad::linalg::CsrMatrix;
using rascad::linalg::DenseMatrix;
using rascad::linalg::Vector;

TEST(DenseMatrix, ConstructionAndAccess) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 3), std::out_of_range);
}

TEST(DenseMatrix, InitializerListRejectsRagged) {
  EXPECT_THROW((DenseMatrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(DenseVectorOps, NormsAndDot) {
  const Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(rascad::linalg::norm1(v), 7.0);
  EXPECT_DOUBLE_EQ(rascad::linalg::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(rascad::linalg::norm_inf(v), 4.0);
  EXPECT_DOUBLE_EQ(rascad::linalg::dot(v, v), 25.0);
  EXPECT_THROW(rascad::linalg::dot(v, Vector{1.0}), std::invalid_argument);
}

TEST(DenseVectorOps, NormalizeSum) {
  Vector v{1.0, 3.0};
  rascad::linalg::normalize_sum(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
  Vector zero{0.0, 0.0};
  EXPECT_THROW(rascad::linalg::normalize_sum(zero), std::domain_error);
}

TEST(CsrMatrix, BuildMergesDuplicates) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 4.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  // Duplicates sum in insertion order: (0.1 + 0.2) + 0.3 and
  // 0.1 + (0.2 + 0.3) differ in the last bit.
  CsrBuilder ordered(1, 2);
  ordered.add(0, 1, 0.1);
  ordered.add(0, 0, 1.0);
  ordered.add(0, 1, 0.2);
  ordered.add(0, 1, 0.3);
  EXPECT_EQ(ordered.build().at(0, 1), (0.1 + 0.2) + 0.3);
}

TEST(CsrMatrix, DropsExplicitZeros) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 0.0);
  b.add(0, 1, 1.0);
  b.add(0, 1, -1.0);  // cancels to zero
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(CsrMatrix, MulAndTranspose) {
  CsrBuilder b(2, 3);
  b.add(0, 0, 1.0);
  b.add(0, 2, 2.0);
  b.add(1, 1, 3.0);
  const CsrMatrix m = b.build();
  const Vector y = m.mul({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  const Vector yt = m.mul_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(yt[0], 1.0);
  EXPECT_DOUBLE_EQ(yt[1], 3.0);
  EXPECT_DOUBLE_EQ(yt[2], 2.0);
  const CsrMatrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 2.0);
}

TEST(CsrMatrix, RowSumsAndDense) {
  CsrBuilder b(2, 2);
  b.add(0, 0, -1.0);
  b.add(0, 1, 1.0);
  const CsrMatrix m = b.build();
  const Vector s = m.row_sums();
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
  const DenseMatrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
}

TEST(CsrMatrix, OutOfRangeAdd) {
  CsrBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 2, 1.0), std::out_of_range);
}

/// Dense oracle: y = A x computed row-by-row off to_dense().
Vector dense_mul(const CsrMatrix& a, const Vector& x) {
  const auto d = a.to_dense();
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += d(r, c) * x[c];
  }
  return y;
}

CsrMatrix random_csr(std::size_t n, double density, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  CsrBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    if (r % 11 == 5) continue;  // leave some rows empty
    for (std::size_t c = 0; c < n; ++c) {
      if (r % 7 == 3 && c == r) continue;  // some diagonal-free rows
      if (coin(rng) < density) b.add(r, c, value(rng));
    }
  }
  return b.build();
}

TEST(CsrMatrix, MulMatchesDenseOracleOnRandomMatrices) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_csr(37, 0.15, seed);
    std::mt19937 rng(seed + 100);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Vector x(a.cols());
    for (double& v : x) v = dist(rng);
    const Vector oracle = dense_mul(a, x);
    const Vector y = a.mul(x);
    ASSERT_EQ(y.size(), oracle.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y[i], oracle[i], 1e-12) << "seed=" << seed << " row=" << i;
    }
  }
}

TEST(CsrMatrix, MulEmptyRowsOneByOneAndDiagonalFreeRows) {
  // 1x1 with a single entry.
  CsrBuilder one(1, 1);
  one.add(0, 0, 2.5);
  EXPECT_EQ(one.build().mul(Vector{2.0})[0], 5.0);
  // 1x1 empty.
  EXPECT_EQ(CsrBuilder(1, 1).build().mul(Vector{3.0})[0], 0.0);
  // Empty rows and diagonal-free rows against the dense oracle.
  CsrBuilder b(4, 4);
  b.add(0, 1, 1.0);  // row 0: diagonal-free
  b.add(0, 3, -2.0);
  b.add(2, 2, 4.0);  // rows 1 and 3: empty
  const CsrMatrix a = b.build();
  const Vector x = {1.0, 2.0, 3.0, 4.0};
  const Vector oracle = dense_mul(a, x);
  const Vector y = a.mul(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], oracle[i]);
  EXPECT_THROW(a.mul(Vector(3, 1.0)), std::invalid_argument);
  EXPECT_THROW(a.mul_transpose(Vector(5, 1.0)), std::invalid_argument);
}

/// Exact comparison of two CSR matrices: shape, pattern and value bits.
void expect_identical(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    ASSERT_EQ(ra.size, rb.size) << "row " << r;
    for (std::size_t k = 0; k < ra.size; ++k) {
      EXPECT_EQ(ra.cols[k], rb.cols[k]) << "row " << r;
      EXPECT_EQ(ra.values[k], rb.values[k]) << "row " << r;
    }
  }
}

TEST(CsrBuilder, RepeatedBuildsAreIdentical) {
  // One unsorted triplet set with duplicates. Rebuilding it, on this thread
  // after other builds of different sizes and on another thread, yields
  // the same CSR bit for bit.
  CsrBuilder b(30, 30);
  std::mt19937 rng(9);
  std::uniform_int_distribution<std::size_t> idx(0, 29);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  for (int t = 0; t < 400; ++t) b.add(idx(rng), idx(rng), value(rng));
  const CsrMatrix first = b.build();
  for (std::size_t n : {3u, 100u, 1u}) (void)random_csr(n, 0.5, 4);
  expect_identical(first, b.build());
  CsrMatrix other;
  std::thread([&] { other = b.build(); }).join();
  expect_identical(first, other);
}

}  // namespace
