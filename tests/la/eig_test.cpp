// Symmetric tridiagonal eigensolver tests, and the bidiagonal QR
// SVD held against the dense Jacobi reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "support/jacobi_svd.hpp"
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

TEST(TridiagEig, ExtremeScalesMatchTheUnscaledSolve) {
  // Scaled by 1e200 the rotation pairs overflow when squared, and by 1e-200
  // they underflow; both fall back to std::hypot and must give the unscaled
  // eigenvalues, scaled, and the same eigenvectors.
  lsi::util::Rng rng(17);
  const std::size_t n = 30;
  std::vector<double> d(n), off(n - 1);
  for (auto& x : d) x = rng.normal();
  for (auto& x : off) x = rng.normal();
  const auto base = tridiag_eigen(d, off);
  double top = 0.0;
  for (double v : base.values) top = std::max(top, std::fabs(v));
  for (const double scale : {1e200, 1e-200}) {
    std::vector<double> ds = d, offs = off;
    for (auto& x : ds) x *= scale;
    for (auto& x : offs) x *= scale;
    const auto got = tridiag_eigen(ds, offs);
    ASSERT_EQ(got.values.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got.values[i] / scale, base.values[i], 1e-14 * top)
          << "scale " << scale << " value " << i;
      // Same eigenvector up to sign.
      EXPECT_NEAR(std::fabs(dot(got.vectors.col(i), base.vectors.col(i))),
                  1.0, 1e-13)
          << "scale " << scale << " vector " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// bidiagonal_svd against jacobi_svd of the same dense bidiagonal.

DenseMatrix dense_bidiagonal(const std::vector<double>& d,
                             const std::vector<double>& e) {
  DenseMatrix b(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    b(i, i) = d[i];
    if (i + 1 < d.size()) b(i, i + 1) = e[i];
  }
  return b;
}

/// Orthonormal factors to 1e-13, B = U diag(s) V^T to 1e-14 ||B||_F, and
/// singular values within 1e-13 sigma_1 of the Jacobi reference.
void expect_bidiagonal_svd_matches_jacobi(const std::vector<double>& d,
                                          const std::vector<double>& e) {
  const std::size_t n = d.size();
  const DenseMatrix b = dense_bidiagonal(d, e);
  const SvdResult got = bidiagonal_svd(d, e);
  const SvdResult want = jacobi_svd(b);
  ASSERT_EQ(got.rank(), n);
  ASSERT_EQ(got.u.rows(), n);
  ASSERT_EQ(got.v.rows(), n);
  EXPECT_LE(orthonormality_error(got.u), 1e-13);
  EXPECT_LE(orthonormality_error(got.v), 1e-13);
  DenseMatrix diff = got.reconstruct();
  diff.add_scaled(b, -1.0);
  EXPECT_LE(diff.frobenius_norm(), 1e-14 * b.frobenius_norm());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(got.s[i], 0.0) << i;
    if (i > 0) {
      EXPECT_LE(got.s[i], got.s[i - 1]) << i;
    }
    EXPECT_NEAR(got.s[i], want.s[i], 1e-13 * want.s[0]) << i;
  }
}

std::vector<double> normals(std::size_t n, lsi::util::Rng& rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

TEST(BidiagonalSvd, Random) {
  lsi::util::Rng rng(31);
  for (const std::size_t n : {2u, 3u, 17u, 60u}) {
    expect_bidiagonal_svd_matches_jacobi(normals(n, rng), normals(n - 1, rng));
  }
}

TEST(BidiagonalSvd, ZeroDiagonalEntry) {
  // A zero on the diagonal gives a zero singular value; the cancellation
  // sweep chases its row's superdiagonal away first. In the middle, at the
  // top and at the bottom.
  lsi::util::Rng rng(32);
  for (const std::size_t at : {0u, 7u, 19u}) {
    auto d = normals(20, rng);
    d[at] = 0.0;
    expect_bidiagonal_svd_matches_jacobi(d, normals(19, rng));
  }
  expect_bidiagonal_svd_matches_jacobi({0.0, 2.0}, {3.0});
}

TEST(BidiagonalSvd, ZeroSuperdiagonal) {
  lsi::util::Rng rng(33);
  auto e = normals(24, rng);
  e[5] = 0.0;
  e[23] = 0.0;
  expect_bidiagonal_svd_matches_jacobi(normals(25, rng), e);
  // Diagonal: the singular values are |d_i|, sorted.
  const SvdResult diag = bidiagonal_svd(std::vector<double>{-1.0, 3.0, 2.0},
                                        std::vector<double>{0.0, 0.0});
  EXPECT_EQ(diag.s, (std::vector<double>{3.0, 2.0, 1.0}));
  expect_bidiagonal_svd_matches_jacobi({-1.0, 3.0, 2.0}, {0.0, 0.0});
}

TEST(BidiagonalSvd, AllZeros) {
  const std::vector<double> d(6, 0.0), e(5, 0.0);
  expect_bidiagonal_svd_matches_jacobi(d, e);
  const SvdResult got = bidiagonal_svd(d, e);
  for (double s : got.s) EXPECT_EQ(s, 0.0);
}

TEST(BidiagonalSvd, OneByOne) {
  expect_bidiagonal_svd_matches_jacobi({-2.5}, {});
  const SvdResult got = bidiagonal_svd(std::vector<double>{-2.5}, {});
  EXPECT_EQ(got.s[0], 2.5);
  EXPECT_EQ(got.u(0, 0) * got.v(0, 0), -1.0);
  EXPECT_TRUE(bidiagonal_svd({}, {}).s.empty());
}

TEST(BidiagonalSvd, ExactlyRepeatedSingularValues) {
  // Two copies of the same 3x3 block, split by a zero superdiagonal: every
  // singular value occurs exactly twice.
  const std::vector<double> d{3.0, 1.0, 2.0, 3.0, 1.0, 2.0};
  const std::vector<double> e{2.0, 0.5, 0.0, 2.0, 0.5};
  expect_bidiagonal_svd_matches_jacobi(d, e);
  const SvdResult got = bidiagonal_svd(d, e);
  for (std::size_t i = 0; i < 6; i += 2) {
    EXPECT_NEAR(got.s[i], got.s[i + 1], 1e-14 * got.s[0]) << i;
  }
}

TEST(BidiagonalSvd, GradedMagnitudes) {
  // Entries falling from 1 to 1e-15 down the diagonal, in both directions.
  std::vector<double> d(16), e(15);
  for (std::size_t i = 0; i < 16; ++i) {
    d[i] = std::pow(10.0, -static_cast<double>(i));
    if (i < 15) e[i] = 0.5 * d[i];
  }
  expect_bidiagonal_svd_matches_jacobi(d, e);
  std::reverse(d.begin(), d.end());
  std::reverse(e.begin(), e.end());
  expect_bidiagonal_svd_matches_jacobi(d, e);
}

}  // namespace
