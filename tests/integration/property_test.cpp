// Cross-cutting property sweeps: invariants that must hold over whole
// parameter grids rather than single examples.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "support/jacobi_svd.hpp"
#include "la/lanczos.hpp"
#include "lsi/folding.hpp"
#include "lsi/update.hpp"
#include "synth/sparse_random.hpp"
#include "util/thread_pool.hpp"
#include "weighting/weighting.hpp"

namespace {

using namespace lsi;
using la::index_t;

// ---------------------------------------------------------------------------
// Lanczos invariants over a (shape, density, k) grid.
// ---------------------------------------------------------------------------

class LanczosGrid
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(LanczosGrid, InvariantsHold) {
  auto [m, n, density, k] = GetParam();
  auto a = synth::random_sparse_matrix(m, n, density, 1000 + m + n);
  la::LanczosOptions opts;
  opts.k = k;
  auto svd = la::lanczos_svd(a, opts);

  // Descending nonnegative singular values.
  for (std::size_t i = 0; i < svd.s.size(); ++i) {
    EXPECT_GE(svd.s[i], -1e-12);
    if (i) {
      EXPECT_LE(svd.s[i], svd.s[i - 1] + 1e-12);
    }
  }
  // sigma_1 <= ||A||_F and reconstruction never exceeds the matrix norm.
  const double fro = a.to_dense().frobenius_norm();
  if (!svd.s.empty()) {
    EXPECT_LE(svd.s[0], fro + 1e-9);
  }
  EXPECT_LE(svd.reconstruct().frobenius_norm(), fro + 1e-9);
  // Orthonormal factors.
  EXPECT_LT(la::orthonormality_error(svd.u), 1e-8);
  EXPECT_LT(la::orthonormality_error(svd.v), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LanczosGrid,
    ::testing::Values(std::tuple{40, 30, 0.05, 4},
                      std::tuple{40, 30, 0.3, 4},
                      std::tuple{80, 20, 0.1, 8},
                      std::tuple{20, 80, 0.1, 8},
                      std::tuple{120, 100, 0.02, 12},
                      std::tuple{64, 64, 0.15, 16}));

// ---------------------------------------------------------------------------
// Weighting invariants over all 20 schemes.
// ---------------------------------------------------------------------------

class WeightingSchemes
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WeightingSchemes, PreservesSparsityAndSigns) {
  const auto scheme = weighting::all_schemes()[GetParam()];
  auto counts = synth::random_sparse_matrix(25, 18, 0.2, 55);
  auto weighted = weighting::apply(counts, scheme);
  EXPECT_EQ(weighted.rows(), counts.rows());
  EXPECT_EQ(weighted.cols(), counts.cols());
  // Weighting never creates entries where counts had none...
  EXPECT_LE(weighted.nnz(), counts.nnz());
  // ...and never produces negatives from positive counts.
  for (double v : weighted.values()) EXPECT_GE(v, 0.0);
}

TEST_P(WeightingSchemes, GlobalWeightsFiniteAndNonnegative) {
  const auto scheme = weighting::all_schemes()[GetParam()];
  auto counts = synth::random_sparse_matrix(30, 22, 0.15, 56);
  for (double g : weighting::global_weights(counts, scheme.global)) {
    EXPECT_TRUE(std::isfinite(g));
    EXPECT_GE(g, -1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, WeightingSchemes,
                         ::testing::Range<std::size_t>(0, 20));

// ---------------------------------------------------------------------------
// Update invariants: any update path keeps sigma sorted, factors
// orthonormal (for the SVD paths) and shapes consistent.
// ---------------------------------------------------------------------------

enum class UpdatePath { kFold, kProjection, kExact };

class UpdatePaths : public ::testing::TestWithParam<UpdatePath> {};

TEST_P(UpdatePaths, InvariantsAfterDocumentAddition) {
  auto a = synth::random_sparse_matrix(35, 25, 0.2, 77);
  auto d = synth::random_sparse_matrix(35, 6, 0.2, 78);
  auto space = core::try_build_semantic_space(a, 7).value();
  switch (GetParam()) {
    case UpdatePath::kFold:
      core::fold_in_documents(space, d);
      break;
    case UpdatePath::kProjection:
      core::update_documents(space, d);
      break;
    case UpdatePath::kExact:
      core::update_documents_exact(space, d);
      break;
  }
  EXPECT_EQ(space.num_docs(), 31u);
  EXPECT_EQ(space.num_terms(), 35u);
  EXPECT_EQ(space.k(), 7u);
  for (std::size_t i = 1; i < space.sigma.size(); ++i) {
    EXPECT_LE(space.sigma[i], space.sigma[i - 1] + 1e-12);
  }
  EXPECT_LT(core::orthogonality_loss(space.u), 1e-8);
  if (GetParam() != UpdatePath::kFold) {
    EXPECT_LT(core::orthogonality_loss(space.v), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, UpdatePaths,
                         ::testing::Values(UpdatePath::kFold,
                                           UpdatePath::kProjection,
                                           UpdatePath::kExact));

// ---------------------------------------------------------------------------
// Thread pool under real concurrency (the global pool may be single-
// threaded on 1-core machines; these force multi-worker pools).
// ---------------------------------------------------------------------------

TEST(ThreadPoolStress, ManyWorkersManyTasks) {
  lsi::util::ThreadPool pool(4);
  std::atomic<long long> total{0};
  for (int t = 0; t < 2000; ++t) {
    pool.submit([&total, t] { total.fetch_add(t); });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), 2000LL * 1999 / 2);
}

TEST(ThreadPoolStress, RepeatedWaitIdleCycles) {
  lsi::util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 50; ++round) {
    for (int t = 0; t < 20; ++t) pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolStress, WaitIdleOnEmptyPool) {
  lsi::util::ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

}  // namespace
