// Folding-in tests (Equations 7-8 and the Section 4.3 orthogonality story).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "data/med_topics.hpp"
#include "lsi/folding.hpp"
#include "lsi/retrieval.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;
using core::SemanticSpace;

TEST(FoldDocuments, AppendsRowsToV) {
  auto a = synth::random_sparse_matrix(20, 12, 0.3, 1);
  auto space = core::try_build_semantic_space(a, 4).value();
  auto d = synth::random_sparse_matrix(20, 3, 0.3, 2);
  fold_in_documents(space, d);
  EXPECT_EQ(space.num_docs(), 15u);
  EXPECT_EQ(space.num_terms(), 20u);
  EXPECT_EQ(space.k(), 4u);
}

TEST(FoldDocuments, ExistingCoordinatesUntouched) {
  auto a = synth::random_sparse_matrix(18, 10, 0.3, 3);
  auto space = core::try_build_semantic_space(a, 5).value();
  const auto v_before = space.v;
  fold_in_documents(space, synth::random_sparse_matrix(18, 4, 0.3, 4));
  for (core::index_t j = 0; j < 5; ++j) {
    for (core::index_t i = 0; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(space.v(i, j), v_before(i, j));
    }
  }
}

TEST(FoldDocuments, MatchesEquation7) {
  // The folded row must equal d^T U_k S_k^{-1} exactly.
  auto a = synth::random_sparse_matrix(16, 9, 0.4, 5);
  auto space = core::try_build_semantic_space(a, 3).value();
  la::DenseMatrix d(16, 1);
  for (core::index_t i = 0; i < 16; ++i) d(i, 0) = std::sin(1.0 + i);
  fold_in_documents(space, d);
  const auto expect = core::project_query(space, d.col(0));
  for (core::index_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(space.v(9, i), expect[i], 1e-12);
  }
}

TEST(FoldDocuments, BatchRowsAreBitIdenticalToDenseProjection) {
  // The sparse fold adds only the nonzero products, in ascending row order;
  // the skipped terms are exact zeros, so every coordinate must equal
  // project_query on the densified column to the last bit.
  auto a = synth::random_sparse_matrix(60, 40, 0.2, 8);
  auto space = core::try_build_semantic_space(a, 8).value();
  const SemanticSpace before = space;
  la::CooBuilder batch(60, 6);
  for (core::index_t c = 0; c < 6; ++c) {
    for (core::index_t i = c; i < 60; i += 5 + c) {
      batch.add(i, c, std::sin(1.0 + 3.0 * i + c));  // mixed signs
    }
  }
  const la::CscMatrix d = batch.to_csc();
  fold_in_documents(space, d);
  ASSERT_EQ(space.num_docs(), 46u);
  const la::DenseMatrix dense = d.to_dense();
  for (core::index_t c = 0; c < 6; ++c) {
    const la::Vector expect = core::project_query(before, dense.col(c));
    for (core::index_t i = 0; i < space.k(); ++i) {
      const double got = space.v(40 + c, i);
      EXPECT_EQ(std::memcmp(&got, &expect[i], sizeof(double)), 0)
          << "doc " << c << " factor " << i;
    }
  }
}

TEST(FoldDocuments, RefoldingTrainingDocumentLandsOnItsRow) {
  // With a full-rank space, folding in column j of A reproduces V's row j.
  auto a = synth::random_sparse_matrix(14, 8, 0.5, 6);
  auto space = core::try_build_semantic_space(a, 8).value();
  la::DenseMatrix col(14, 1);
  const auto dense = a.to_dense();
  for (core::index_t i = 0; i < 14; ++i) col(i, 0) = dense(i, 2);
  fold_in_documents(space, col);
  for (core::index_t i = 0; i < space.k(); ++i) {
    EXPECT_NEAR(space.v(8, i), space.v(2, i), 1e-9);
  }
}

TEST(FoldTerms, AppendsRowsToU) {
  auto a = synth::random_sparse_matrix(20, 12, 0.3, 7);
  auto space = core::try_build_semantic_space(a, 4).value();
  auto t = synth::random_sparse_matrix(2, 12, 0.3, 8);
  fold_in_terms(space, t);
  EXPECT_EQ(space.num_terms(), 22u);
  EXPECT_EQ(space.num_docs(), 12u);
}

TEST(FoldTerms, MatchesEquation8) {
  auto a = synth::random_sparse_matrix(10, 11, 0.4, 9);
  auto space = core::try_build_semantic_space(a, 3).value();
  la::DenseMatrix t(1, 11);
  for (core::index_t j = 0; j < 11; ++j) t(0, j) = std::cos(2.0 + j);
  fold_in_terms(space, t);
  const auto expect = core::project_term(space, t.row(0));
  for (core::index_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(space.u(10, i), expect[i], 1e-12);
  }
}

TEST(Folding, PaperTopicsM15M16) {
  // Fold the Table 5 topics into the paper's k=2 space. M16 ("depressed
  // patients ... pressure to fast") mixes both clusters; M15 (rats/rise/
  // oestrogen/behavior) leans to the hormone-behavior side. The key
  // qualitative claim (Section 3.4): folding-in fails to pull M15 into the
  // {M13, M14} rats cluster because the old structure cannot move.
  auto space = core::try_build_semantic_space(data::table3_counts(), 2).value();
  core::align_signs_to(space, data::figure5_u2());
  fold_in_documents(space, data::update_document_columns());
  ASSERT_EQ(space.num_docs(), 16u);
  // Old coordinates frozen:
  auto space0 = core::try_build_semantic_space(data::table3_counts(), 2).value();
  core::align_signs_to(space0, data::figure5_u2());
  for (core::index_t j = 0; j < 2; ++j) {
    for (core::index_t i = 0; i < 14; ++i) {
      EXPECT_DOUBLE_EQ(space.v(i, j), space0.v(i, j));
    }
  }
  // M15 must NOT be as close to M13/M14 as those are to each other.
  const double m13_m14 = core::document_similarity(space, 12, 13);
  const double m15_m13 = core::document_similarity(space, 14, 12);
  EXPECT_GT(m13_m14, m15_m13);
}

TEST(Folding, OrthogonalityLossGrowsWithFoldedDocs) {
  auto a = synth::random_sparse_matrix(40, 25, 0.15, 10);
  auto space = core::try_build_semantic_space(a, 6).value();
  const double loss0 = core::orthogonality_loss(space.v);
  EXPECT_LT(loss0, 1e-9);
  double prev = loss0;
  for (int batch = 0; batch < 3; ++batch) {
    fold_in_documents(space,
                      synth::random_sparse_matrix(40, 10, 0.15, 20 + batch));
    const double loss = core::orthogonality_loss(space.v);
    EXPECT_GE(loss, prev - 1e-12);
    prev = loss;
  }
  EXPECT_GT(prev, 1e-6);  // folding genuinely corrupts orthogonality
}

}  // namespace
