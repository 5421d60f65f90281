// Subspace-iteration SVD tests: agreement with Jacobi and Lanczos, the two
// independent solvers cross-validating each other.

#include <gtest/gtest.h>

#include <cmath>

#include "support/jacobi_svd.hpp"
#include "la/lanczos.hpp"
#include "la/subspace.hpp"
#include "data/med_topics.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi::la;

TEST(Subspace, MatchesJacobiOnSparse) {
  auto a = lsi::synth::random_sparse_matrix(80, 60, 0.1, 7);
  auto want = jacobi_svd(a.to_dense());
  SubspaceOptions opts;
  opts.k = 6;
  SubspaceStats stats;
  auto got = subspace_svd(a, opts, &stats);
  ASSERT_EQ(got.rank(), 6u);
  EXPECT_TRUE(stats.converged);
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(got.s[i], want.s[i], 1e-6 * want.s[0]) << i;
  }
}

TEST(Subspace, AgreesWithLanczos) {
  auto a = lsi::synth::random_sparse_matrix(150, 100, 0.05, 9);
  LanczosOptions lopts;
  lopts.k = 8;
  auto lz = lanczos_svd(a, lopts);
  SubspaceOptions sopts;
  sopts.k = 8;
  auto ss = subspace_svd(a, sopts);
  for (index_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(ss.s[i], lz.s[i], 1e-6 * lz.s[0]) << i;
  }
}

TEST(Subspace, FactorsOrthonormalAndReconstruct) {
  auto a = lsi::synth::random_sparse_matrix(40, 30, 0.2, 11);
  SubspaceOptions opts;
  opts.k = 30;  // full rank
  opts.oversample = 0;
  opts.max_iterations = 600;
  auto got = subspace_svd(a, opts);
  EXPECT_LT(orthonormality_error(got.u), 1e-7);
  EXPECT_LT(orthonormality_error(got.v), 1e-7);
  EXPECT_LT(max_abs_diff(got.reconstruct(), a.to_dense()), 1e-6);
}

TEST(Subspace, ZeroMatrix) {
  CooBuilder b(12, 9);
  SubspaceOptions opts;
  opts.k = 3;
  auto got = subspace_svd(b.to_csc(), opts);
  for (double s : got.s) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(Subspace, DeterministicForSeed) {
  auto a = lsi::synth::random_sparse_matrix(50, 40, 0.15, 13);
  SubspaceOptions opts;
  opts.k = 4;
  auto r1 = subspace_svd(a, opts);
  auto r2 = subspace_svd(a, opts);
  EXPECT_EQ(r1.s, r2.s);
  EXPECT_NEAR(max_abs_diff(r1.u, r2.u), 0.0, 0.0);
}

TEST(Subspace, KClampedToRank) {
  auto a = lsi::synth::random_sparse_matrix(10, 5, 0.6, 15);
  SubspaceOptions opts;
  opts.k = 40;
  auto got = subspace_svd(a, opts);
  EXPECT_LE(got.rank(), 5u);
}

TEST(Subspace, StatsPopulated) {
  auto a = lsi::synth::random_sparse_matrix(60, 45, 0.1, 17);
  SubspaceOptions opts;
  opts.k = 5;
  SubspaceStats stats;
  (void)subspace_svd(a, opts, &stats);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.matvecs, 0u);
}

TEST(Subspace, PaperExampleSigma) {
  // Cross-check on the Table 3 matrix: all three solvers must agree.
  const auto& a = lsi::data::table3_counts();
  auto jac = jacobi_svd(a.to_dense());
  SubspaceOptions opts;
  opts.k = 2;
  auto ss = subspace_svd(a, opts);
  EXPECT_NEAR(ss.s[0], jac.s[0], 1e-7);
  EXPECT_NEAR(ss.s[1], jac.s[1], 1e-7);
}

}  // namespace
