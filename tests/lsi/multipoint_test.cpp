// Multiple-points-of-interest retrieval tests (Section 5.4 extension).

#include <gtest/gtest.h>

#include <algorithm>

#include "data/med_topics.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/semantic_space.hpp"

namespace {

using namespace lsi;
using core::MultiPointCombiner;
using core::SearchOptions;

core::SemanticSpace paper_space() {
  auto space = core::try_build_semantic_space(data::table3_counts(), 4).value();
  return space;
}

la::Vector project_terms(const core::SemanticSpace& space,
                         std::initializer_list<int> rows) {
  la::Vector raw(18, 0.0);
  for (int r : rows) raw[r] = 1.0;
  return core::project_query(space, raw);
}

TEST(MultiPoint, SinglePointMatchesPlainRanking) {
  auto space = paper_space();
  auto q = project_terms(space, {0, 1, 3});  // the paper's query
  auto plain = core::rank_documents(space, q);
  auto multi = core::rank_documents_multipoint(space, {q});
  ASSERT_EQ(plain.size(), multi.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].doc, multi[i].doc);
    EXPECT_NEAR(plain[i].cosine, multi[i].cosine, 1e-12);
  }
}

TEST(MultiPoint, MaxCombinerCoversBothInterests) {
  // Two disjoint interests: hormone production (oestrogen=11, depressed=6)
  // and fasting (fast=9, rats=14). A max-combined multipoint query must
  // rank both clusters' top documents above averaging's compromises.
  auto space = paper_space();
  auto hormone = project_terms(space, {11, 6});
  auto fasting = project_terms(space, {9, 14});

  SearchOptions opts;
  opts.z = 6;
  auto multi = core::rank_documents_multipoint(space, {hormone, fasting},
                                               opts, MultiPointCombiner::kMax);
  std::set<core::index_t> top;
  for (const auto& sd : multi) top.insert(sd.doc);
  // M3/M4 (hormone) and M13/M14 (fasting) must all surface.
  EXPECT_TRUE(top.count(2) || top.count(3));
  EXPECT_TRUE(top.count(12) || top.count(13));

  // Each document's combined score is the max of its per-point scores.
  auto s1 = core::rank_documents(space, hormone);
  auto s2 = core::rank_documents(space, fasting);
  std::vector<double> best(14, -2.0);
  for (const auto& sd : s1) best[sd.doc] = std::max(best[sd.doc], sd.cosine);
  for (const auto& sd : s2) best[sd.doc] = std::max(best[sd.doc], sd.cosine);
  for (const auto& sd : multi) {
    EXPECT_NEAR(sd.cosine, best[sd.doc], 1e-12);
  }
}

TEST(MultiPoint, SumCombinerAverages) {
  auto space = paper_space();
  auto p1 = project_terms(space, {11});
  auto p2 = project_terms(space, {9});
  auto multi = core::rank_documents_multipoint(space, {p1, p2}, {},
                                               MultiPointCombiner::kSum);
  auto s1 = core::rank_documents(space, p1);
  auto s2 = core::rank_documents(space, p2);
  std::vector<double> mean(14, 0.0);
  for (const auto& sd : s1) mean[sd.doc] += sd.cosine / 2.0;
  for (const auto& sd : s2) mean[sd.doc] += sd.cosine / 2.0;
  for (const auto& sd : multi) {
    EXPECT_NEAR(sd.cosine, mean[sd.doc], 1e-12);
  }
}

TEST(MultiPoint, ThresholdAppliesToCombinedScore) {
  auto space = paper_space();
  auto p1 = project_terms(space, {11});
  auto p2 = project_terms(space, {9});
  SearchOptions opts;
  opts.min_cosine = 0.7;
  auto multi = core::rank_documents_multipoint(space, {p1, p2}, opts,
                                               MultiPointCombiner::kMax);
  for (const auto& sd : multi) EXPECT_GE(sd.cosine, 0.7);
}

// The one-sweep multipoint path must reproduce, bit for bit, combining the
// per-point rank_documents lists (a document missing from a point's list
// counts as 0) under every combiner and similarity mode.
TEST(MultiPoint, CombinedScoresBitIdenticalToPerPointRankings) {
  // Five points: the sweep runs four of them as one grouped stream and the
  // fifth on its own, and both must match the single-point sweep.
  auto space = paper_space();
  const std::vector<la::Vector> points = {
      project_terms(space, {11, 6}), project_terms(space, {9, 14}),
      project_terms(space, {0, 1, 3}), project_terms(space, {2, 17}),
      project_terms(space, {5})};
  for (const auto mode :
       {core::SimilarityMode::kColumnSpace, core::SimilarityMode::kProjected,
        core::SimilarityMode::kPlainV}) {
    SearchOptions opts;
    opts.mode = mode;
    std::vector<std::vector<double>> per_point;
    for (const auto& p : points) {
      std::vector<double> scores(space.num_docs(), 0.0);
      for (const auto& sd : core::rank_documents(space, p, opts)) {
        scores[sd.doc] = sd.cosine;
      }
      per_point.push_back(std::move(scores));
    }
    for (const auto combiner :
         {MultiPointCombiner::kMax, MultiPointCombiner::kSum}) {
      const auto multi =
          core::rank_documents_multipoint(space, points, opts, combiner);
      ASSERT_EQ(multi.size(), space.num_docs());
      for (const auto& sd : multi) {
        double want = combiner == MultiPointCombiner::kMax ? -2.0 : 0.0;
        for (const auto& scores : per_point) {
          if (combiner == MultiPointCombiner::kMax) {
            want = std::max(want, scores[sd.doc]);
          } else {
            want += scores[sd.doc] / static_cast<double>(points.size());
          }
        }
        EXPECT_EQ(sd.cosine, want) << "doc " << sd.doc;
      }
    }
  }
}

TEST(MultiPoint, EmptyPointsYieldEmpty) {
  auto space = paper_space();
  EXPECT_TRUE(core::rank_documents_multipoint(space, {}).empty());
}

}  // namespace
