// SVD-updating tests (Section 4): each phase must agree with recomputing
// the SVD of the updated matrix whenever A_k = A (full rank), and must keep
// the factor bases orthonormal (the property folding-in loses).

#include <gtest/gtest.h>

#include <cmath>

#include "data/med_topics.hpp"
#include "lsi/folding.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/update.hpp"
#include "synth/sparse_random.hpp"
#include "util/rng.hpp"
#include "weighting/weighting.hpp"

namespace {

using namespace lsi;
using core::SemanticSpace;
using core::index_t;

/// sigma and reconstruction match between two spaces (signs are free).
void expect_spaces_equivalent(const SemanticSpace& a, const SemanticSpace& b,
                              double tol) {
  ASSERT_EQ(a.k(), b.k());
  for (index_t i = 0; i < a.k(); ++i) {
    EXPECT_NEAR(a.sigma[i], b.sigma[i], tol) << "sigma " << i;
  }
  EXPECT_LT(la::max_abs_diff(a.reconstruct(), b.reconstruct()), tol * 10);
}

TEST(UpdateDocuments, EqualsRecomputeWhenSubspaceCoversD) {
  // SVD-updating operates on B = (A_k | D) with D *projected into
  // span(U_k)* (U_B = U_k U_F never leaves it — Section 4.2). When the
  // retained subspace is all of R^m (wide full-rank A, k = m), the method
  // must agree with recomputing the SVD of (A | D) exactly.
  auto a = synth::random_sparse_matrix(8, 14, 0.5, 1);
  auto d = synth::random_sparse_matrix(8, 3, 0.5, 2);
  auto space = core::try_build_semantic_space(a, 8).value();  // k = m: U spans R^m
  core::update_documents(space, d);

  auto recomputed = core::try_build_semantic_space(a.with_appended_cols(d), 8).value();
  expect_spaces_equivalent(space, recomputed, 1e-9);
}

TEST(UpdateDocuments, EqualsRecomputeOfProjectedMatrix) {
  // General case: the update is the exact SVD of (A_k | P_U D) where
  // P_U = U_k U_k^T projects the new documents onto the retained term
  // subspace.
  auto a = synth::random_sparse_matrix(14, 9, 0.5, 21);
  auto d = synth::random_sparse_matrix(14, 3, 0.5, 22);
  const index_t k = 5;
  auto space = core::try_build_semantic_space(a, k).value();
  const auto u_before = space.u;
  const auto sigma_before = space.sigma;
  const auto v_before = space.v.to_dense();

  // Build (A_k | P_U D) explicitly.
  auto ak = la::multiply_a_bt(la::scale_cols(u_before, sigma_before),
                              v_before);
  auto utd = la::multiply_at_b(u_before, d.to_dense());   // k x p
  auto proj_d = la::multiply(u_before, utd);              // m x p
  auto b = ak;
  b.append_cols(proj_d);

  core::update_documents(space, d);
  auto recomputed =
      core::try_build_semantic_space(la::CscMatrix::from_dense(b), k).value();
  expect_spaces_equivalent(space, recomputed, 1e-8);
}

TEST(UpdateDocuments, ShapesAndOrthogonality) {
  auto a = synth::random_sparse_matrix(30, 20, 0.2, 3);
  auto space = core::try_build_semantic_space(a, 6).value();
  core::update_documents(space, synth::random_sparse_matrix(30, 5, 0.2, 4));
  EXPECT_EQ(space.num_docs(), 25u);
  EXPECT_EQ(space.k(), 6u);
  EXPECT_LT(core::orthogonality_loss(space.u), 1e-10);
  EXPECT_LT(core::orthogonality_loss(space.v), 1e-10);
}

TEST(UpdateDocuments, BetterThanFoldingOnTruncatedSpace) {
  // With a truncated space, SVD-updating must approximate the recomputed
  // space at least as well as folding-in does (Frobenius distance of the
  // reconstruction to the true updated matrix).
  auto a = synth::random_sparse_matrix(40, 26, 0.15, 5);
  auto d = synth::random_sparse_matrix(40, 6, 0.15, 6);
  const index_t k = 5;

  auto folded = core::try_build_semantic_space(a, k).value();
  core::fold_in_documents(folded, d);
  auto updated = core::try_build_semantic_space(a, k).value();
  core::update_documents(updated, d);

  auto truth = a.with_appended_cols(d).to_dense();
  auto err_fold = truth;
  err_fold.add_scaled(folded.reconstruct(), -1.0);
  auto err_update = truth;
  err_update.add_scaled(updated.reconstruct(), -1.0);
  EXPECT_LE(err_update.frobenius_norm(), err_fold.frobenius_norm() + 1e-9);
}

TEST(UpdateTerms, EqualsRecomputeWhenSubspaceCoversT) {
  // Dual of the documents case: with a tall full-rank A and k = n, V spans
  // the whole document space and term updating is exact.
  auto a = synth::random_sparse_matrix(13, 9, 0.5, 7);
  auto t = synth::random_sparse_matrix(4, 9, 0.5, 8);
  auto space = core::try_build_semantic_space(a, 9).value();  // k = n: V spans R^n
  core::update_terms(space, t);

  auto recomputed = core::try_build_semantic_space(a.with_appended_rows(t), 9).value();
  expect_spaces_equivalent(space, recomputed, 1e-9);
}

TEST(UpdateTerms, ShapesAndOrthogonality) {
  auto a = synth::random_sparse_matrix(22, 18, 0.25, 9);
  auto space = core::try_build_semantic_space(a, 5).value();
  core::update_terms(space, synth::random_sparse_matrix(7, 18, 0.25, 10));
  EXPECT_EQ(space.num_terms(), 29u);
  EXPECT_EQ(space.num_docs(), 18u);
  EXPECT_LT(core::orthogonality_loss(space.u), 1e-10);
  EXPECT_LT(core::orthogonality_loss(space.v), 1e-10);
}

TEST(UpdateWeights, EqualsRecomputeWhenFullRank) {
  // Change global weights of some terms; W = A + Y Z^T must match the
  // directly recomputed SVD. A square full-rank A with k = m = n keeps both
  // Y and Z inside the retained subspaces, so the update is exact.
  auto a = synth::random_sparse_matrix(11, 11, 0.6, 11);
  auto space = core::try_build_semantic_space(a, 11).value();

  std::vector<double> old_g(11, 1.0);
  std::vector<double> new_g(11, 1.0);
  new_g[2] = 1.8;
  new_g[7] = 0.4;
  auto corr = weighting::weight_correction(
      a, weighting::LocalWeight::kRawTf, old_g, new_g);
  core::update_weights(space, corr.y, corr.z);

  auto w = a.to_dense();
  w.add_scaled(la::multiply_a_bt(corr.y, corr.z), 1.0);
  auto recomputed =
      core::try_build_semantic_space(la::CscMatrix::from_dense(w), 11).value();
  expect_spaces_equivalent(space, recomputed, 1e-9);
}

TEST(UpdateWeights, NoChangeIsIdentity) {
  auto a = synth::random_sparse_matrix(12, 10, 0.4, 12);
  auto space = core::try_build_semantic_space(a, 4).value();
  const auto sigma_before = space.sigma;
  la::DenseMatrix y(12, 0), z(10, 0);
  core::update_weights(space, y, z);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(space.sigma[i], sigma_before[i], 1e-12);
  }
}

TEST(UpdatePaperExample, M15JoinsTheRatsCluster) {
  // Section 4.4/4.5: after SVD-updating with M15/M16, {M13, M14, M15} forms
  // a cluster (folding-in fails to produce it) and M16 moves toward the
  // depressed/patients/pressure/fast centroid.
  auto updated = core::try_build_semantic_space(data::table3_counts(), 2).value();
  core::align_signs_to(updated, data::figure5_u2());
  core::update_documents(updated, data::update_document_columns());

  auto folded = core::try_build_semantic_space(data::table3_counts(), 2).value();
  core::align_signs_to(folded, data::figure5_u2());
  core::fold_in_documents(folded, data::update_document_columns());

  // Rats-cluster cohesion (M13=12, M14=13, M15=14): SVD-updating at least
  // as tight as folding-in for the minimum pairwise similarity.
  auto cohesion = [](const SemanticSpace& s) {
    const double a = core::document_similarity(s, 12, 14);
    const double b = core::document_similarity(s, 13, 14);
    return std::min(a, b);
  };
  EXPECT_GE(cohesion(updated), cohesion(folded) - 1e-9);

  // The updated decomposition agrees with recomputing on the 18 x 16
  // matrix much better than folding does (Frobenius reconstruction error).
  auto full = data::table3_counts().with_appended_cols(
      data::update_document_columns());
  auto recomputed = core::try_build_semantic_space(full, 2).value();
  auto err = [&](const SemanticSpace& s) {
    auto diff = full.to_dense();
    diff.add_scaled(s.reconstruct(), -1.0);
    return diff.frobenius_norm();
  };
  EXPECT_LE(err(updated), err(folded) + 1e-9);
  EXPECT_NEAR(err(updated), err(recomputed), 0.35);
}

TEST(UpdateOrder, DocumentsThenTermsMatchesRecompute) {
  // Chained exact update: documents first (k = m so span(U) = R^m), then a
  // term block constructed inside span(V_B) so the second phase is exact
  // too. The chained result must match recomputing the SVD of the full
  // bordered matrix.
  auto a = synth::random_sparse_matrix(8, 12, 0.5, 13);
  auto d = synth::random_sparse_matrix(8, 2, 0.5, 14);
  auto space = core::try_build_semantic_space(a, 8).value();
  core::update_documents(space, d);

  // T = C V_B^T with random C (3 x k): rows of T lie in span(V_B).
  la::DenseMatrix c(3, 8);
  lsi::util::Rng rng(15);
  for (index_t j = 0; j < 8; ++j) {
    for (index_t i = 0; i < 3; ++i) c(i, j) = rng.normal();
  }
  auto t = la::multiply_a_bt(c, space.v.to_dense());  // 3 x (n+p)
  core::update_terms(space, la::CscMatrix::from_dense(t));

  auto big = a.with_appended_cols(d).to_dense();
  big.append_rows(t);
  auto recomputed =
      core::try_build_semantic_space(la::CscMatrix::from_dense(big), 8).value();
  expect_spaces_equivalent(space, recomputed, 1e-8);
}

}  // namespace
