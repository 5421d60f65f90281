// Dense matrix tests: constructors, views, products, and shape algebra.

#include <gtest/gtest.h>

#include "la/dense.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi::la;

DenseMatrix random_matrix(index_t m, index_t n, std::uint64_t seed) {
  lsi::util::Rng rng(seed);
  DenseMatrix a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.normal();
  }
  return a;
}

TEST(Dense, FromRowsAndAccess) {
  auto a = DenseMatrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 6.0);
}

TEST(Dense, IdentityProduct) {
  auto a = random_matrix(4, 4, 1);
  auto i4 = DenseMatrix::identity(4);
  EXPECT_NEAR(max_abs_diff(multiply(a, i4), a), 0.0, 1e-15);
  EXPECT_NEAR(max_abs_diff(multiply(i4, a), a), 0.0, 1e-15);
}

TEST(Dense, MultiplyKnown) {
  auto a = DenseMatrix::from_rows({{1, 2}, {3, 4}});
  auto b = DenseMatrix::from_rows({{5, 6}, {7, 8}});
  auto c = multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Dense, AtBMatchesExplicitTranspose) {
  auto a = random_matrix(7, 4, 2);
  auto b = random_matrix(7, 5, 3);
  EXPECT_NEAR(max_abs_diff(multiply_at_b(a, b), multiply(a.transposed(), b)),
              0.0, 1e-12);
}

TEST(Dense, ABtMatchesExplicitTranspose) {
  auto a = random_matrix(6, 4, 4);
  auto b = random_matrix(5, 4, 5);
  EXPECT_NEAR(max_abs_diff(multiply_a_bt(a, b), multiply(a, b.transposed())),
              0.0, 1e-12);
}

TEST(Dense, MatVecAgainstMatMat) {
  auto a = random_matrix(6, 3, 6);
  Vector x = {1.5, -2.0, 0.5};
  auto y = multiply(a, x);
  DenseMatrix xm(3, 1);
  for (index_t i = 0; i < 3; ++i) xm(i, 0) = x[i];
  auto ym = multiply(a, xm);
  for (index_t i = 0; i < 6; ++i) EXPECT_NEAR(y[i], ym(i, 0), 1e-13);
}

TEST(Dense, TransposeMatVec) {
  auto a = random_matrix(6, 3, 7);
  Vector x = {1, 2, 3, 4, 5, 6};
  auto y = multiply_transpose(a, x);
  auto yt = multiply(a.transposed(), x);
  for (index_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], yt[i], 1e-13);
}

TEST(Dense, RowExtraction) {
  auto a = DenseMatrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  auto r = a.row(1);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 4.0);
}

TEST(Dense, FirstCols) {
  auto a = random_matrix(5, 4, 8);
  auto f = a.first_cols(2);
  EXPECT_EQ(f.cols(), 2u);
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(f(i, 1), a(i, 1));
  }
}

TEST(Dense, AppendCols) {
  auto a = random_matrix(3, 2, 9);
  auto b = random_matrix(3, 3, 10);
  auto c = a;
  c.append_cols(b);
  EXPECT_EQ(c.cols(), 5u);
  EXPECT_DOUBLE_EQ(c(2, 4), b(2, 2));
  EXPECT_DOUBLE_EQ(c(1, 0), a(1, 0));
}

TEST(Dense, AppendRows) {
  auto a = random_matrix(2, 3, 11);
  auto b = random_matrix(4, 3, 12);
  auto c = a;
  c.append_rows(b);
  EXPECT_EQ(c.rows(), 6u);
  EXPECT_DOUBLE_EQ(c(0, 1), a(0, 1));
  EXPECT_DOUBLE_EQ(c(5, 2), b(3, 2));
}

TEST(Dense, AppendToEmpty) {
  DenseMatrix a;
  auto b = random_matrix(3, 2, 13);
  a.append_cols(b);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 2u);
}

TEST(Dense, ScaleColsRows) {
  auto a = DenseMatrix::from_rows({{1, 2}, {3, 4}});
  Vector d = {2, 10};
  auto ac = scale_cols(a, d);
  EXPECT_DOUBLE_EQ(ac(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ac(0, 1), 20.0);
  auto ar = scale_rows(a, d);
  EXPECT_DOUBLE_EQ(ar(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(ar(1, 0), 30.0);
}

TEST(Dense, NormsAndAddScaled) {
  auto a = DenseMatrix::from_rows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  auto b = DenseMatrix::identity(2);
  a.add_scaled(b, -3.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
}

TEST(Dense, OrthonormalityErrorOfIdentity) {
  EXPECT_NEAR(orthonormality_error(DenseMatrix::identity(5)), 0.0, 1e-15);
}

TEST(Dense, ToStringContainsEntries) {
  auto a = DenseMatrix::from_rows({{1.5}});
  EXPECT_NE(to_string(a).find("1.5"), std::string::npos);
}

// Associativity / distributivity style properties over random shapes.
class DenseProperty : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseProperty, ProductTransposeIdentity) {
  auto [m, kk, n] = GetParam();
  auto a = random_matrix(m, kk, 100 + m);
  auto b = random_matrix(kk, n, 200 + n);
  // (A B)^T == B^T A^T
  auto left = multiply(a, b).transposed();
  auto right = multiply(b.transposed(), a.transposed());
  EXPECT_NEAR(max_abs_diff(left, right), 0.0, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseProperty,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 5, 2},
                                           std::tuple{8, 2, 9},
                                           std::tuple{16, 16, 16},
                                           std::tuple{33, 7, 5}));

}  // namespace
