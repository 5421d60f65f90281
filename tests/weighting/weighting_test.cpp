// Term-weighting tests (Equation 5 machinery).

#include <gtest/gtest.h>

#include <cmath>

#include "la/sparse.hpp"
#include "weighting/weighting.hpp"

namespace {

using namespace lsi::weighting;
using lsi::la::CooBuilder;
using lsi::la::CscMatrix;
using lsi::la::index_t;

CscMatrix sample_counts() {
  // 3 terms x 4 docs:
  //   t0: appears once in every doc (uninformative)
  //   t1: 4 occurrences concentrated in doc 0 (informative)
  //   t2: appears in docs 1 and 2
  CooBuilder b(3, 4);
  for (index_t j = 0; j < 4; ++j) b.add(0, j, 1.0);
  b.add(1, 0, 4.0);
  b.add(2, 1, 1.0);
  b.add(2, 2, 2.0);
  return b.to_csc();
}

TEST(Weighting, RawIsIdentity) {
  auto counts = sample_counts();
  auto w = apply(counts, kRaw);
  EXPECT_EQ(w.nnz(), counts.nnz());
  EXPECT_DOUBLE_EQ(w.at(1, 0), 4.0);
}

TEST(Weighting, BinaryLocal) {
  auto w = apply(sample_counts(), {LocalWeight::kBinary, GlobalWeight::kNone});
  EXPECT_DOUBLE_EQ(w.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1, 1), 0.0);
}

TEST(Weighting, LogLocal) {
  auto w = apply(sample_counts(), {LocalWeight::kLog, GlobalWeight::kNone});
  EXPECT_NEAR(w.at(1, 0), std::log2(5.0), 1e-12);
  EXPECT_NEAR(w.at(0, 0), 1.0, 1e-12);  // log2(2)
}

TEST(Weighting, AugmentedLocal) {
  auto w =
      apply(sample_counts(), {LocalWeight::kAugmented, GlobalWeight::kNone});
  // Doc 0 max tf = 4: t1 -> 1.0, t0 -> 0.5 + 0.5/4.
  EXPECT_NEAR(w.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(w.at(0, 0), 0.625, 1e-12);
}

TEST(Weighting, EntropyGlobalExtremes) {
  auto g = global_weights(sample_counts(), GlobalWeight::kEntropy);
  // t0 is spread perfectly evenly over 4 docs -> entropy weight ~0.
  EXPECT_NEAR(g[0], 0.0, 1e-12);
  // t1 occurs in a single document -> weight 1 (maximally informative).
  EXPECT_NEAR(g[1], 1.0, 1e-12);
  // t2 in between.
  EXPECT_GT(g[2], 0.0);
  EXPECT_LT(g[2], 1.0);
}

TEST(Weighting, IdfOrdersByRarity) {
  auto g = global_weights(sample_counts(), GlobalWeight::kIdf);
  EXPECT_GT(g[1], g[2]);  // df 1 < df 2
  EXPECT_GT(g[2], g[0]);  // df 2 < df 4
  EXPECT_NEAR(g[0], 1.0, 1e-12);  // log2(4/4) + 1
  EXPECT_NEAR(g[1], 3.0, 1e-12);  // log2(4/1) + 1
}

TEST(Weighting, GfIdf) {
  auto g = global_weights(sample_counts(), GlobalWeight::kGfIdf);
  EXPECT_NEAR(g[0], 1.0, 1e-12);   // gf 4 / df 4
  EXPECT_NEAR(g[1], 4.0, 1e-12);   // gf 4 / df 1
  EXPECT_NEAR(g[2], 1.5, 1e-12);   // gf 3 / df 2
}

TEST(Weighting, NormalGlobal) {
  auto g = global_weights(sample_counts(), GlobalWeight::kNormal);
  EXPECT_NEAR(g[0], 0.5, 1e-12);                  // 1/sqrt(4)
  EXPECT_NEAR(g[1], 0.25, 1e-12);                 // 1/sqrt(16)
  EXPECT_NEAR(g[2], 1.0 / std::sqrt(5.0), 1e-12); // 1/sqrt(1+4)
}

TEST(Weighting, ApplyCombinesLocalAndGlobal) {
  auto w = apply(sample_counts(), kLogEntropy);
  auto g = global_weights(sample_counts(), GlobalWeight::kEntropy);
  EXPECT_NEAR(w.at(1, 0), std::log2(5.0) * g[1], 1e-12);
  // t0's entropy weight ~0 wipes its row, and explicit zeros are dropped.
  EXPECT_NEAR(w.at(0, 0), 0.0, 1e-12);
}

TEST(Weighting, ApplyToVectorMatchesMatrixWeighting) {
  auto counts = sample_counts();
  auto g = global_weights(counts, GlobalWeight::kEntropy);
  const lsi::la::Vector dense = {1.0, 4.0, 0.0};
  const auto tf = lsi::la::SparseVector::from_dense(dense);
  const auto wq = apply_to_sparse(tf, g, LocalWeight::kLog).to_dense(3);
  EXPECT_NEAR(wq[1], std::log2(5.0) * g[1], 1e-12);
  EXPECT_DOUBLE_EQ(wq[2], 0.0);
}

TEST(Weighting, AllSchemesEnumerates20) {
  EXPECT_EQ(all_schemes().size(), 20u);
}

TEST(Weighting, Names) {
  EXPECT_EQ(name(kLogEntropy), "logxentropy");
  EXPECT_EQ(name(kRaw), "tfxnone");
}

TEST(WeightCorrection, SelectsOnlyChangedTerms) {
  auto counts = sample_counts();
  std::vector<double> old_g = {1.0, 1.0, 1.0};
  std::vector<double> new_g = {1.0, 2.0, 1.0};
  auto corr = weight_correction(counts, LocalWeight::kRawTf, old_g, new_g);
  ASSERT_EQ(corr.terms.size(), 1u);
  EXPECT_EQ(corr.terms[0], 1u);
  EXPECT_EQ(corr.y.cols(), 1u);
  EXPECT_DOUBLE_EQ(corr.y(1, 0), 1.0);
  // Z column: delta of row 1 = (2 - 1) * [4 0 0 0].
  EXPECT_DOUBLE_EQ(corr.z(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(corr.z(1, 0), 0.0);
}

TEST(WeightCorrection, YZProductEqualsWeightDelta) {
  // A_new = A_old + Y Z^T must hold exactly.
  auto counts = sample_counts();
  std::vector<double> old_g = {1.0, 1.0, 1.0};
  std::vector<double> new_g = {0.5, 2.0, 1.5};
  auto corr = weight_correction(counts, LocalWeight::kRawTf, old_g, new_g);
  auto delta = lsi::la::multiply_a_bt(corr.y, corr.z);  // m x n
  auto dense = counts.to_dense();
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(delta(i, j), dense(i, j) * (new_g[i] - old_g[i]), 1e-12);
    }
  }
}

}  // namespace
