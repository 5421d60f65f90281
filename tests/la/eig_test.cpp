// Symmetric tridiagonal / dense eigensolver tests.

#include <gtest/gtest.h>

#include <cmath>

#include "la/tridiag_eig.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi::la;

TEST(TridiagEig, Empty) {
  auto e = tridiag_eigen({}, {});
  EXPECT_TRUE(e.values.empty());
}

TEST(TridiagEig, Scalar) {
  auto e = tridiag_eigen({3.5}, {});
  ASSERT_EQ(e.values.size(), 1u);
  EXPECT_DOUBLE_EQ(e.values[0], 3.5);
}

TEST(TridiagEig, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  auto e = tridiag_eigen({2.0, 2.0}, {1.0});
  ASSERT_EQ(e.values.size(), 2u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(TridiagEig, DiagonalMatrixSortsAscending) {
  auto e = tridiag_eigen({5.0, -1.0, 2.0}, {0.0, 0.0});
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], -1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 5.0, 1e-12);
}

TEST(TridiagEig, LaplacianKnownSpectrum) {
  // 1-D Laplacian: eigenvalues 2 - 2 cos(pi i / (n+1)).
  const std::size_t n = 12;
  std::vector<double> d(n, 2.0), off(n - 1, -1.0);
  auto e = tridiag_eigen(d, off);
  for (std::size_t i = 0; i < n; ++i) {
    const double expect =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(i + 1) /
                             static_cast<double>(n + 1));
    EXPECT_NEAR(e.values[i], expect, 1e-10);
  }
}

TEST(TridiagEig, LastRowMatchesFullSolveBitForBit) {
  // The last-row variant runs the same rotations, so its values and its one
  // eigenvector row are the full solve's, bit for bit. The Golub–Kahan
  // shape (zero diagonal) is the one the Lanczos check feeds it.
  lsi::util::Rng rng(9);
  for (const bool golub_kahan : {false, true}) {
    const std::size_t n = 40;
    std::vector<double> d(n, 0.0), off(n - 1);
    if (!golub_kahan) {
      for (auto& x : d) x = rng.normal();
    }
    for (auto& x : off) x = rng.normal();
    const auto full = tridiag_eigen(d, off);
    const auto last = tridiag_eigen_last_row(d, off);
    EXPECT_EQ(last.values, full.values);
    ASSERT_EQ(last.vectors.rows(), 1u);
    ASSERT_EQ(last.vectors.cols(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(last.vectors(0, i), full.vectors(n - 1, i)) << i;
    }
  }
  EXPECT_TRUE(tridiag_eigen_last_row({}, {}).values.empty());
}

TEST(TridiagEig, ReconstructsMatrix) {
  lsi::util::Rng rng(5);
  const std::size_t n = 20;
  std::vector<double> d(n), off(n - 1);
  for (auto& x : d) x = rng.normal();
  for (auto& x : off) x = rng.normal();

  auto e = tridiag_eigen(d, off);
  EXPECT_LT(orthonormality_error(e.vectors), 1e-10);

  // Z diag(w) Z^T must reproduce T.
  auto zd = scale_cols(e.vectors, e.values);
  auto t = multiply_a_bt(zd, e.vectors);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double expect = 0.0;
      if (i == j) expect = d[i];
      if (j + 1 == i) expect = off[j];
      if (i + 1 == j) expect = off[i];
      EXPECT_NEAR(t(i, j), expect, 1e-9);
    }
  }
}

TEST(SymmetricEigen, RandomSymmetricReconstructs) {
  lsi::util::Rng rng(9);
  const index_t n = 15;
  DenseMatrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  auto e = symmetric_eigen(a);
  EXPECT_LT(orthonormality_error(e.vectors), 1e-9);
  auto zd = scale_cols(e.vectors, e.values);
  auto back = multiply_a_bt(zd, e.vectors);
  EXPECT_LT(max_abs_diff(back, a), 1e-8);
  for (std::size_t i = 1; i < e.values.size(); ++i) {
    EXPECT_LE(e.values[i - 1], e.values[i]);
  }
}

TEST(SymmetricEigen, GramMatrixIsPsd) {
  lsi::util::Rng rng(21);
  DenseMatrix b(10, 6);
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 10; ++i) b(i, j) = rng.normal();
  }
  auto g = multiply_at_b(b, b);
  auto e = symmetric_eigen(g);
  for (double v : e.values) EXPECT_GT(v, -1e-9);
}

}  // namespace
