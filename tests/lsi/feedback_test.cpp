// Relevance-feedback tests, including the negative (Rocchio gamma) term the
// paper lists as unexploited future work.

#include <gtest/gtest.h>

#include "data/med_topics.hpp"
#include "lsi/feedback.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/semantic_space.hpp"

namespace {

using namespace lsi;
using core::index_t;

core::SemanticSpace paper_space(index_t k = 4) {
  return core::try_build_semantic_space(data::table3_counts(), k).value();
}

la::Vector paper_query(const core::SemanticSpace& space) {
  la::Vector raw(18, 0.0);
  raw[0] = raw[1] = raw[3] = 1.0;
  return core::project_query(space, raw);
}

TEST(Feedback, ReplaceWithRelevantIsCentroid) {
  auto space = paper_space();
  auto q = core::replace_with_relevant(space, {7, 8});  // M8, M9
  for (index_t i = 0; i < space.k(); ++i) {
    EXPECT_NEAR(q[i], (space.v(7, i) + space.v(8, i)) / 2.0, 1e-12);
  }
}

TEST(Feedback, ReplaceWithEmptyIsZero) {
  auto space = paper_space();
  auto q = core::replace_with_relevant(space, {});
  for (double v : q) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Feedback, RocchioIdentityWhenNoJudgments) {
  auto space = paper_space();
  auto q = paper_query(space);
  auto q2 = core::rocchio_feedback(space, q, {}, {}, {1.0, 0.75, 0.25});
  for (index_t i = 0; i < space.k(); ++i) EXPECT_NEAR(q2[i], q[i], 1e-12);
}

TEST(Feedback, RocchioLinearCombination) {
  auto space = paper_space();
  auto q = paper_query(space);
  core::RocchioWeights w{0.5, 2.0, 1.0};
  auto q2 = core::rocchio_feedback(space, q, {7}, {0}, w);
  for (index_t i = 0; i < space.k(); ++i) {
    EXPECT_NEAR(q2[i], 0.5 * q[i] + 2.0 * space.v(7, i) - space.v(0, i),
                1e-12);
  }
}

TEST(Feedback, PositiveFeedbackPullsTowardRelevantCluster) {
  auto space = paper_space();
  auto q = paper_query(space);
  // Feed back M8/M9/M12 as relevant: their mutual similarities to the new
  // query must rise relative to the initial one.
  auto q2 = core::rocchio_feedback(space, q, {7, 8, 11}, {},
                                   {1.0, 1.0, 0.0});
  core::SearchOptions opts;
  auto before = core::rank_documents(space, q, opts);
  auto after = core::rank_documents(space, q2, opts);
  auto cosine_of = [](const std::vector<core::ScoredDoc>& r, index_t doc) {
    for (const auto& sd : r) {
      if (sd.doc == doc) return sd.cosine;
    }
    return -2.0;
  };
  EXPECT_GE(cosine_of(after, 8), cosine_of(before, 8) - 1e-9);
}

TEST(Feedback, NegativeFeedbackPushesAwayFromIrrelevant) {
  // The paper's open idea: mark the lexical false positives M1 and M10 as
  // irrelevant; their rank must drop relative to no-feedback retrieval.
  auto space = paper_space();
  auto q = paper_query(space);
  auto q2 = core::rocchio_feedback(space, q, {}, {0, 9},  // M1, M10
                                   {1.0, 0.0, 0.8});

  // Individual ranks can shuffle either way (ranking is relative), but the
  // new query must sit farther from the judged-irrelevant *centroid*, and
  // the pair's aggregate rank must not improve.
  la::Vector centroid(space.k(), 0.0);
  for (index_t d : {0u, 9u}) {
    for (index_t i = 0; i < space.k(); ++i) {
      centroid[i] += space.v(d, i) / 2.0;
    }
  }
  EXPECT_LT(la::cosine(q2, centroid), la::cosine(q, centroid));

  auto rank_of = [&](const la::Vector& query, index_t doc) {
    auto ranked = core::rank_documents(space, query);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].doc == doc) return i;
    }
    return ranked.size();
  };
  EXPECT_GE(rank_of(q2, 0) + rank_of(q2, 9),
            rank_of(q, 0) + rank_of(q, 9));
}

}  // namespace
