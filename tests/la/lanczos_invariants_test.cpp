// Randomized SVD invariant tests for the Lanczos solver: on seeded sparse
// matrices the returned triplets must satisfy the defining properties of a
// (truncated) SVD regardless of the matrix drawn —
//
//   * sigma descending and nonnegative,
//   * U and V have orthonormal columns:  ||U^T U - I||_max, ||V^T V - I||_max
//     tiny (full reorthogonalization promises this to near machine-eps),
//   * each triplet satisfies the coupled residual equations
//         ||A v_i - sigma_i u_i||_2   and   ||A^T u_i - sigma_i v_i||_2
//     within the convergence tolerance (relative to sigma_1),
//   * the solver agrees with itself across start-vector seeds.
//
// These are *property* checks, not golden values: any regression in
// reorthogonalization, the Ritz convergence test, or the final basis
// rotation breaks at least one of them on some seed.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "la/lanczos.hpp"
#include "la/sparse.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;

double max_abs_off_identity(const la::DenseMatrix& gram) {
  double worst = 0.0;
  for (la::index_t j = 0; j < gram.cols(); ++j) {
    for (la::index_t i = 0; i < gram.rows(); ++i) {
      const double target = (i == j) ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(gram(i, j) - target));
    }
  }
  return worst;
}

double column_residual(const la::CscMatrix& a, const la::SvdResult& svd,
                       la::index_t i, bool transpose) {
  std::vector<double> y(transpose ? a.cols() : a.rows(), 0.0);
  const auto x = transpose ? svd.u.col(i) : svd.v.col(i);
  const auto paired = transpose ? svd.v.col(i) : svd.u.col(i);
  if (transpose) {
    a.apply_transpose(x, y);
  } else {
    a.apply(x, y);
  }
  double norm2 = 0.0;
  for (std::size_t r = 0; r < y.size(); ++r) {
    const double diff = y[r] - svd.s[i] * paired[r];
    norm2 += diff * diff;
  }
  return std::sqrt(norm2);
}

class LanczosInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LanczosInvariants, RandomSparseMatrixSatisfiesSvdProperties) {
  const std::uint64_t seed = GetParam();
  const la::CscMatrix a = synth::random_sparse_matrix(150, 110, 0.04, seed);

  la::LanczosOptions opts;
  opts.k = 10;
  opts.tol = 1e-10;
  opts.seed = seed * 7 + 1;
  la::LanczosStats stats;
  const la::SvdResult svd = lanczos_svd(a, opts, &stats);

  ASSERT_EQ(svd.rank(), 10u);
  ASSERT_EQ(svd.u.rows(), a.rows());
  ASSERT_EQ(svd.v.rows(), a.cols());
  EXPECT_EQ(stats.converged, svd.rank())
      << "max residual " << stats.max_residual;

  // Spectrum: descending, nonnegative, leading value nonzero.
  ASSERT_GT(svd.s[0], 0.0);
  for (std::size_t i = 0; i < svd.s.size(); ++i) {
    EXPECT_GE(svd.s[i], 0.0) << "sigma[" << i << "]";
    if (i > 0) {
      EXPECT_LE(svd.s[i], svd.s[i - 1]) << "sigma not descending";
    }
  }

  // Orthonormality of both bases (full reorthogonalization's contract).
  EXPECT_LE(max_abs_off_identity(la::multiply_at_b(svd.u, svd.u)), 1e-8);
  EXPECT_LE(max_abs_off_identity(la::multiply_at_b(svd.v, svd.v)), 1e-8);

  // Coupled residuals, relative to sigma_1 like the solver's own test.
  const double bound = 1e-6 * svd.s[0];
  for (la::index_t i = 0; i < svd.rank(); ++i) {
    EXPECT_LE(column_residual(a, svd, i, /*transpose=*/false), bound)
        << "||A v_i - sigma_i u_i|| at i=" << i;
    EXPECT_LE(column_residual(a, svd, i, /*transpose=*/true), bound)
        << "||A^T u_i - sigma_i v_i|| at i=" << i;
  }
}

TEST_P(LanczosInvariants, SpectrumIsStartVectorInvariant) {
  const std::uint64_t seed = GetParam();
  const la::CscMatrix a = synth::random_sparse_matrix(120, 90, 0.05, seed);

  la::LanczosOptions opts;
  opts.k = 6;
  opts.tol = 1e-10;
  opts.seed = 1;
  const la::SvdResult first = lanczos_svd(a, opts);
  opts.seed = 2;
  const la::SvdResult second = lanczos_svd(a, opts);

  ASSERT_EQ(first.rank(), second.rank());
  for (std::size_t i = 0; i < first.s.size(); ++i) {
    // Singular *values* are intrinsic to A; only the vectors' signs/rotation
    // may depend on the start vector.
    EXPECT_NEAR(first.s[i], second.s[i], 1e-7 * first.s[0])
        << "sigma[" << i << "] depends on the start vector";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LanczosInvariants,
                         ::testing::Values(11u, 22u, 33u, 44u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
