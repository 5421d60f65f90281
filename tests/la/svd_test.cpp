// One-sided Jacobi SVD tests: exactness on known matrices, factor
// orthogonality, reconstruction, sign/sort conventions, degenerate shapes.

#include <gtest/gtest.h>

#include <cmath>

#include "support/jacobi_svd.hpp"
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

TEST(JacobiSvd, DiagonalMatrix) {
  auto a = DenseMatrix::from_rows({{3, 0}, {0, 4}});
  auto s = jacobi_svd(a);
  ASSERT_EQ(s.s.size(), 2u);
  EXPECT_NEAR(s.s[0], 4.0, 1e-13);
  EXPECT_NEAR(s.s[1], 3.0, 1e-13);
}

TEST(JacobiSvd, KnownTwoByTwo) {
  // [[1, 1], [0, 1]] has singular values sqrt((3 +/- sqrt 5)/2).
  auto a = DenseMatrix::from_rows({{1, 1}, {0, 1}});
  auto s = jacobi_svd(a);
  EXPECT_NEAR(s.s[0], std::sqrt((3.0 + std::sqrt(5.0)) / 2.0), 1e-13);
  EXPECT_NEAR(s.s[1], std::sqrt((3.0 - std::sqrt(5.0)) / 2.0), 1e-13);
}

TEST(JacobiSvd, SingularValuesDescendAndNonnegative) {
  auto s = jacobi_svd(random_matrix(12, 8, 3));
  for (std::size_t i = 1; i < s.s.size(); ++i) {
    EXPECT_LE(s.s[i], s.s[i - 1]);
    EXPECT_GE(s.s[i], 0.0);
  }
}

TEST(JacobiSvd, SignConvention) {
  auto s = jacobi_svd(random_matrix(9, 5, 4));
  for (index_t j = 0; j < s.rank(); ++j) {
    auto uj = s.u.col(j);
    double best = 0.0;
    for (double v : uj) best = std::max(best, std::fabs(v));
    bool found_positive_max = false;
    for (double v : uj) {
      if (std::fabs(std::fabs(v) - best) < 1e-15 && v > 0) {
        found_positive_max = true;
      }
    }
    EXPECT_TRUE(found_positive_max) << "column " << j;
  }
}

TEST(JacobiSvd, RankDeficient) {
  // Rank-1 matrix: second singular value must be ~0.
  DenseMatrix a(4, 3);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      a(i, j) = static_cast<double>((i + 1) * (j + 1));
    }
  }
  auto s = jacobi_svd(a);
  EXPECT_GT(s.s[0], 1.0);
  EXPECT_NEAR(s.s[1], 0.0, 1e-10);
  EXPECT_NEAR(s.s[2], 0.0, 1e-10);
}

TEST(JacobiSvd, EmptyMatrix) {
  auto s = jacobi_svd(DenseMatrix{});
  EXPECT_EQ(s.rank(), 0u);
}

TEST(JacobiSvd, TruncateKeepsLargest) {
  auto s = jacobi_svd(random_matrix(10, 6, 5));
  const double s0 = s.s[0];
  s.truncate(2);
  EXPECT_EQ(s.rank(), 2u);
  EXPECT_EQ(s.u.cols(), 2u);
  EXPECT_EQ(s.v.cols(), 2u);
  EXPECT_DOUBLE_EQ(s.s[0], s0);
}

TEST(JacobiSvd, EckartYoungErrorEqualsNextSigma) {
  // Theorem 2.2 of the paper: ||A - A_k||_2 = sigma_{k+1} and
  // ||A - A_k||_F^2 = sum_{i>k} sigma_i^2.
  auto a = random_matrix(10, 7, 6);
  auto s = jacobi_svd(a);
  auto sk = s;
  sk.truncate(3);
  auto diff = a;
  diff.add_scaled(sk.reconstruct(), -1.0);
  auto resid = jacobi_svd(diff);
  EXPECT_NEAR(resid.s[0], s.s[3], 1e-10);
  double tail = 0.0;
  for (std::size_t i = 3; i < s.s.size(); ++i) tail += s.s[i] * s.s[i];
  EXPECT_NEAR(diff.frobenius_norm() * diff.frobenius_norm(), tail, 1e-9);
}

class SvdShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapes, FactorsOrthogonalAndReconstruct) {
  auto [m, n] = GetParam();
  auto a = random_matrix(m, n, 1000 + m * 7 + n);
  auto s = jacobi_svd(a);
  EXPECT_EQ(s.rank(), static_cast<index_t>(std::min(m, n)));
  EXPECT_LT(orthonormality_error(s.u), 1e-11);
  EXPECT_LT(orthonormality_error(s.v), 1e-11);
  EXPECT_LT(max_abs_diff(s.reconstruct(), a), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{7, 3}, std::pair{3, 7},
                                           std::pair{20, 20},
                                           std::pair{40, 11},
                                           std::pair{11, 40}));

TEST(SvdTypes, SortDescendingPermutesCoherently) {
  SvdResult s;
  s.u = DenseMatrix::from_rows({{1, 0}, {0, 1}});
  s.v = DenseMatrix::from_rows({{1, 0}, {0, 1}});
  s.s = {1.0, 5.0};
  sort_descending(s);
  EXPECT_DOUBLE_EQ(s.s[0], 5.0);
  EXPECT_DOUBLE_EQ(s.u(1, 0), 1.0);  // old column 1 now first
  EXPECT_DOUBLE_EQ(s.v(1, 0), 1.0);
}

TEST(SvdTypes, NormalizeSignsFlipsPairs) {
  SvdResult s;
  s.u = DenseMatrix::from_rows({{-2}, {1}});
  s.v = DenseMatrix::from_rows({{3}, {-1}});
  s.s = {1.0};
  normalize_signs(s);
  EXPECT_DOUBLE_EQ(s.u(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.v(0, 0), -3.0);
}

TEST(SvdTypes, SingularValuesMatchGramEigenvalues) {
  // sigma_i^2 are the eigenvalues of A^T A (Section 2 of the paper).
  auto a = random_matrix(9, 4, 77);
  auto s = jacobi_svd(a);
  auto g = multiply_at_b(a, a);
  // Power iteration on G for the top eigenvalue as an independent check.
  lsi::util::Rng rng(3);
  Vector x(4);
  for (double& v : x) v = rng.normal();
  for (int it = 0; it < 500; ++it) {
    x = multiply(g, x);
    normalize(x);
  }
  auto gx = multiply(g, x);
  const double lambda = dot(x, gx);
  EXPECT_NEAR(std::sqrt(lambda), s.s[0], 1e-8);
}

}  // namespace
