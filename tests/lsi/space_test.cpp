// Semantic-space construction and geometry tests.

#include <gtest/gtest.h>

#include <cmath>

#include "la/jacobi_svd.hpp"
#include "lsi/semantic_space.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

TEST(SemanticSpace, DimensionsAndAccessors) {
  auto a = synth::random_sparse_matrix(30, 20, 0.2, 1);
  auto space = try_build_semantic_space(a, 5).value();
  EXPECT_EQ(space.k(), 5u);
  EXPECT_EQ(space.num_terms(), 30u);
  EXPECT_EQ(space.num_docs(), 20u);
  EXPECT_EQ(space.term_vector(3).size(), 5u);
  EXPECT_EQ(space.doc_vector(7).size(), 5u);
}

TEST(SemanticSpace, SigmaDescending) {
  auto a = synth::random_sparse_matrix(25, 25, 0.3, 2);
  auto space = try_build_semantic_space(a, 8).value();
  for (std::size_t i = 1; i < space.sigma.size(); ++i) {
    EXPECT_LE(space.sigma[i], space.sigma[i - 1]);
  }
}

TEST(SemanticSpace, FullRankReconstructsExactly) {
  auto a = synth::random_sparse_matrix(12, 9, 0.5, 3);
  auto space = try_build_semantic_space(a, 9).value();
  EXPECT_LT(la::max_abs_diff(space.reconstruct(), a.to_dense()), 1e-9);
}

TEST(SemanticSpace, TruncationIsEckartYoungOptimal) {
  // ||A - A_k||_F^2 == sum of discarded sigma^2 (paper Theorem 2.2).
  auto a = synth::random_sparse_matrix(15, 12, 0.4, 4);
  auto full = la::jacobi_svd(a.to_dense());
  auto space = try_build_semantic_space(a, 4).value();
  auto diff = a.to_dense();
  diff.add_scaled(space.reconstruct(), -1.0);
  double tail = 0.0;
  for (std::size_t i = 4; i < full.s.size(); ++i) tail += full.s[i] * full.s[i];
  EXPECT_NEAR(diff.frobenius_norm() * diff.frobenius_norm(), tail, 1e-8);
}

TEST(SemanticSpace, DocCoordsAreSigmaScaledRows) {
  auto a = synth::random_sparse_matrix(20, 10, 0.4, 5);
  auto space = try_build_semantic_space(a, 3).value();
  auto coords = space.doc_coords(4);
  for (index_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(coords[i], space.v(4, i) * space.sigma[i]);
  }
}

TEST(SemanticSpace, LanczosAndJacobiPathsAgree) {
  auto a = synth::random_sparse_matrix(150, 110, 0.05, 6);
  BuildOptions dense_path;
  dense_path.dense_cutoff = 1000;  // force Jacobi
  BuildOptions lanczos_path;
  lanczos_path.dense_cutoff = 0;  // force Lanczos
  auto s1 = try_build_semantic_space(a, 6, dense_path).value();
  auto s2 = try_build_semantic_space(a, 6, lanczos_path).value();
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(s1.sigma[i], s2.sigma[i], 1e-7 * s1.sigma[0]);
  }
}

TEST(SemanticSpace, KClampedToRank) {
  auto a = synth::random_sparse_matrix(8, 5, 0.6, 7);
  auto space = try_build_semantic_space(a, 50).value();
  EXPECT_LE(space.k(), 5u);
}

TEST(AlignSigns, MatchesReferenceOrientation) {
  auto a = synth::random_sparse_matrix(20, 14, 0.3, 8);
  auto space = try_build_semantic_space(a, 3).value();
  // Flip a column, then align back to the original orientation.
  auto reference = space.u;
  la::scale(space.u.col(1), -1.0);
  la::scale(space.v.col(1), -1.0);
  align_signs_to(space, reference);
  EXPECT_LT(la::max_abs_diff(space.u, reference), 1e-12);
}

TEST(OrthogonalityLoss, ZeroForOrthonormal) {
  EXPECT_NEAR(orthogonality_loss(la::DenseMatrix::identity(6)), 0.0, 1e-12);
}

TEST(OrthogonalityLoss, DetectsDuplicateColumn) {
  // Two identical unit columns: Q^T Q = [[1,1],[1,1]], loss = 1.
  la::DenseMatrix q(4, 2);
  q(0, 0) = 1.0;
  q(0, 1) = 1.0;
  EXPECT_NEAR(orthogonality_loss(q), 1.0, 1e-12);
}

TEST(OrthogonalityLoss, GrowsWithPerturbation) {
  la::DenseMatrix q = la::DenseMatrix::identity(5);
  q(0, 1) = 0.1;  // slightly non-orthogonal
  const double small = orthogonality_loss(q);
  q(0, 1) = 0.5;
  const double large = orthogonality_loss(q);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

}  // namespace
