// Golub–Kahan SVD tests: it keeps the contract of the test-only Jacobi
// reference (min(m, n) triplets, s descending, the normalize_signs
// convention) and agrees with it on wide, tall, rank-deficient,
// repeated-sigma, block-diagonal and zero matrices.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/golub_kahan_svd.hpp"
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

/// Q^T Q - I over the leading `cols` columns.
double orthonormality_of(const DenseMatrix& q, index_t cols) {
  return orthonormality_error(q.first_cols(cols));
}

/// The Golub–Kahan SVD of `a` against jacobi_svd: sigma within 1e-13 sigma_1,
/// orthonormal factors, U diag(s) V^T reproducing `a`, and every left
/// vector's largest-magnitude entry (first on ties) nonnegative.
void expect_agrees_with_jacobi(const DenseMatrix& a) {
  const SvdResult gk = golub_kahan_svd(a);
  const SvdResult jac = jacobi_svd(a);
  const index_t r = std::min(a.rows(), a.cols());
  ASSERT_EQ(gk.rank(), r);
  ASSERT_EQ(gk.u.rows(), a.rows());
  ASSERT_EQ(gk.v.rows(), a.cols());
  const double s1 = std::max(jac.s.empty() ? 0.0 : jac.s[0], 1.0);
  for (index_t i = 0; i < r; ++i) {
    EXPECT_NEAR(gk.s[i], jac.s[i], 1e-13 * s1) << "sigma " << i;
    EXPECT_GE(gk.s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(gk.s[i], gk.s[i - 1]);
    }
  }
  EXPECT_LT(orthonormality_of(gk.u, r), 1e-13);
  EXPECT_LT(orthonormality_of(gk.v, r), 1e-13);
  EXPECT_LT(max_abs_diff(gk.reconstruct(), a), 1e-13 * s1);
  for (index_t j = 0; j < r; ++j) {
    auto uj = gk.u.col(j);
    const auto big = std::max_element(uj.begin(), uj.end(), [](double x,
                                                               double y) {
      return std::fabs(x) < std::fabs(y);
    });
    EXPECT_GE(*big, 0.0) << "column " << j;
  }
  // Where sigma is simple, the singular vectors themselves agree.
  for (index_t j = 0; j < r; ++j) {
    const double gap = std::min(j > 0 ? jac.s[j - 1] - jac.s[j] : s1,
                                j + 1 < r ? jac.s[j] - jac.s[j + 1] : s1);
    if (jac.s[j] <= 1e-8 * s1 || gap <= 1e-6 * s1) continue;
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(gk.u(i, j), jac.u(i, j), 1e-10) << i << "," << j;
    }
    for (index_t i = 0; i < a.cols(); ++i) {
      EXPECT_NEAR(gk.v(i, j), jac.v(i, j), 1e-10) << i << "," << j;
    }
  }
}

TEST(GolubKahanSvd, TallMatchesJacobi) {
  expect_agrees_with_jacobi(random_matrix(40, 12, 1));
  expect_agrees_with_jacobi(random_matrix(7, 7, 2));
  expect_agrees_with_jacobi(random_matrix(3, 1, 3));
}

TEST(GolubKahanSvd, WideMatchesJacobi) {
  // The update's F = (Sigma_k | U_k^T D) is k x (k + p).
  expect_agrees_with_jacobi(random_matrix(12, 40, 4));
  expect_agrees_with_jacobi(random_matrix(1, 5, 5));
  expect_agrees_with_jacobi(random_matrix(2, 3, 6));
}

TEST(GolubKahanSvd, RankDeficientMatchesJacobi) {
  // Rank 3 in a 20 x 9 matrix, and a duplicated column.
  const DenseMatrix low =
      multiply(random_matrix(20, 3, 7), random_matrix(3, 9, 8));
  expect_agrees_with_jacobi(low);
  DenseMatrix dup = random_matrix(10, 6, 9);
  for (index_t i = 0; i < dup.rows(); ++i) dup(i, 4) = dup(i, 1);
  expect_agrees_with_jacobi(dup);
  const SvdResult gk = golub_kahan_svd(low);
  for (index_t i = 3; i < gk.rank(); ++i) {
    EXPECT_LT(gk.s[i], 1e-13 * gk.s[0]) << i;
  }
}

TEST(GolubKahanSvd, RepeatedSigmaMatchesJacobi) {
  // Q1 diag(3, 3, 3, 1, 1) Q2^T with orthonormal Q1 (16 x 5), Q2 (5 x 5).
  const SvdResult q1 = jacobi_svd(random_matrix(16, 5, 10));
  const SvdResult q2 = jacobi_svd(random_matrix(5, 5, 11));
  const std::vector<double> d = {3.0, 3.0, 3.0, 1.0, 1.0};
  const DenseMatrix a = multiply_a_bt(scale_cols(q1.u, d), q2.v);
  expect_agrees_with_jacobi(a);
  expect_agrees_with_jacobi(a.transposed());
}

TEST(GolubKahanSvd, ZeroMatrixHasZeroSigmaAndOrthonormalFactors) {
  expect_agrees_with_jacobi(DenseMatrix(6, 4));
  expect_agrees_with_jacobi(DenseMatrix(3, 8));
  const SvdResult gk = golub_kahan_svd(DenseMatrix(5, 5));
  for (double s : gk.s) EXPECT_EQ(s, 0.0);
}

TEST(GolubKahanSvd, EmptyMatrix) {
  EXPECT_EQ(golub_kahan_svd(DenseMatrix()).rank(), 0u);
  EXPECT_EQ(golub_kahan_svd(DenseMatrix(4, 0)).rank(), 0u);
}

TEST(GolubKahanSvd, DisjointBlocksKeepExactZeros) {
  // Document d holds terms 3d..3d+2 at equal weight: four disjoint
  // vocabularies and a 4-fold sigma. Every singular pair must stay on one
  // block with exact zeros elsewhere; a rounding residue there is what
  // reorders tied cosines across shard counts.
  DenseMatrix a(12, 4);
  for (index_t d = 0; d < 4; ++d) {
    for (index_t t = 3 * d; t < 3 * d + 3; ++t) a(t, d) = 0.5;
  }
  expect_agrees_with_jacobi(a);
  const SvdResult gk = golub_kahan_svd(a);
  std::vector<bool> seen(4, false);
  for (index_t j = 0; j < 4; ++j) {
    index_t block = 4;
    for (index_t d = 0; d < 4; ++d) {
      if (gk.v(d, j) != 0.0) {
        EXPECT_EQ(block, 4u) << "column " << j << " spans two blocks";
        block = d;
      }
    }
    ASSERT_LT(block, 4u) << "column " << j;
    EXPECT_FALSE(seen[block]) << "block " << block << " twice";
    seen[block] = true;
    for (index_t t = 0; t < 12; ++t) {
      if (t / 3 != block) {
        EXPECT_EQ(gk.u(t, j), 0.0) << t << "," << j;
      }
    }
  }
}

TEST(GolubKahanSvd, DiagonalPlusBorderLikeTheUpdate) {
  // F = (diag(sigma) | X) with graded sigma, the shape and spectrum the
  // Section 4 document update hands it.
  const index_t k = 16, p = 30;
  DenseMatrix f(k, k + p);
  for (index_t i = 0; i < k; ++i) f(i, i) = 50.0 / (1.0 + i);
  const DenseMatrix x = random_matrix(k, p, 12);
  for (index_t j = 0; j < p; ++j) {
    for (index_t i = 0; i < k; ++i) f(i, k + j) = 0.3 * x(i, j);
  }
  expect_agrees_with_jacobi(f);
}

}  // namespace
