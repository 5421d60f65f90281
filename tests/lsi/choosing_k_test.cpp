// Tests for the spectrum-energy utilities behind the Section 5.2
// "choosing the number of factors" question.

#include <gtest/gtest.h>

#include "support/jacobi_svd.hpp"
#include "data/med_topics.hpp"
#include "lsi/semantic_space.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;
using core::index_t;

TEST(EnergyCaptured, FullSpectrumIsOne) {
  std::vector<double> sigma = {3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(core::energy_captured(sigma, 3), 1.0);
  EXPECT_DOUBLE_EQ(core::energy_captured(sigma, 10), 1.0);
}

TEST(EnergyCaptured, HeadFraction) {
  std::vector<double> sigma = {3.0, 2.0, 1.0};  // squares 9, 4, 1; total 14
  EXPECT_NEAR(core::energy_captured(sigma, 1), 9.0 / 14.0, 1e-12);
  EXPECT_NEAR(core::energy_captured(sigma, 2), 13.0 / 14.0, 1e-12);
  EXPECT_DOUBLE_EQ(core::energy_captured(sigma, 0), 0.0);
}

TEST(EnergyCaptured, ZeroSpectrum) {
  EXPECT_DOUBLE_EQ(core::energy_captured({}, 3), 0.0);
  EXPECT_DOUBLE_EQ(core::energy_captured({0.0, 0.0}, 1), 0.0);
}

TEST(SuggestK, PicksSmallestSufficientK) {
  std::vector<double> sigma = {3.0, 2.0, 1.0};
  EXPECT_EQ(core::suggest_k(sigma, 0.6), 1u);    // 9/14 = .64
  EXPECT_EQ(core::suggest_k(sigma, 0.65), 2u);   // needs 13/14
  EXPECT_EQ(core::suggest_k(sigma, 0.95), 3u);
  EXPECT_EQ(core::suggest_k(sigma, 1.0), 3u);
}

TEST(SuggestK, DegenerateInputs) {
  EXPECT_EQ(core::suggest_k({}, 0.9), 0u);
  EXPECT_EQ(core::suggest_k({0.0}, 0.9), 0u);
}

TEST(SuggestK, ConsistentWithEckartYoung) {
  // The rank-suggest_k truncation must actually capture the requested
  // fraction of ||A||_F^2 (Theorem 2.1 ties sigma^2 to the norm).
  auto a = synth::random_sparse_matrix(20, 14, 0.4, 21);
  auto svd = la::jacobi_svd(a.to_dense());
  const double target = 0.85;
  const index_t k = core::suggest_k(svd.s, target);
  ASSERT_GT(k, 0u);
  auto truncated = svd;
  truncated.truncate(k);
  const double fro2 = a.to_dense().frobenius_norm() *
                      a.to_dense().frobenius_norm();
  const double captured =
      truncated.reconstruct().frobenius_norm() *
      truncated.reconstruct().frobenius_norm();
  EXPECT_GE(captured / fro2, target - 1e-9);
  // And k-1 must NOT suffice (minimality).
  if (k > 1) {
    EXPECT_LT(core::energy_captured(svd.s, k - 1), target);
  }
}

TEST(SuggestK, PaperExampleSpectrum) {
  // On the Table 3 matrix, 2 factors capture a large-but-partial share —
  // consistent with the example's usable k = 2 plots.
  auto svd = la::jacobi_svd(lsi::data::table3_counts().to_dense());
  const double e2 = core::energy_captured(svd.s, 2);
  EXPECT_GT(e2, 0.3);
  EXPECT_LT(e2, 0.9);
  EXPECT_GE(core::suggest_k(svd.s, e2), 2u);
}

}  // namespace
