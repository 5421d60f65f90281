// Additional coverage across the core API: database round-trips with
// weighting metadata, similarity-mode behaviour, retrieval option
// combinations, and the Section 4.5 animation claim about M16.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "data/med_topics.hpp"
#include "lsi/folding.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/update.hpp"

namespace {

using namespace lsi;
using core::index_t;
using core::SearchOptions;
using core::SimilarityMode;

core::SemanticSpace paper_space(index_t k = 2) {
  auto space = core::try_build_semantic_space(data::table3_counts(), k).value();
  core::align_signs_to(space, data::figure5_u2());
  return space;
}

la::Vector paper_query_raw() {
  la::Vector q(18, 0.0);
  q[0] = q[1] = q[3] = 1.0;
  return q;
}

TEST(IoV2, RoundTripsWeightingMetadata) {
  core::IndexOptions opts;
  opts.parser.min_document_frequency = 2;
  opts.scheme = weighting::kLogEntropy;
  opts.k = 3;
  auto index = core::LsiIndex::try_build(data::med_topics(), opts).value();
  core::LsiDatabase db{index.space(), index.vocabulary(),
                       index.doc_labels(), index.options().scheme,
                       index.global_weights()};
  std::stringstream buffer;
  core::try_save_database(buffer, db).or_throw();
  auto loaded = core::try_load_database(buffer).value();
  EXPECT_EQ(loaded.scheme.local, weighting::LocalWeight::kLog);
  EXPECT_EQ(loaded.scheme.global, weighting::GlobalWeight::kEntropy);
  ASSERT_EQ(loaded.global_weights.size(), index.global_weights().size());
  for (std::size_t i = 0; i < loaded.global_weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.global_weights[i], index.global_weights()[i]);
  }
}

TEST(IoV2, DefaultSchemeRoundTrips) {
  core::LsiDatabase db;
  db.space = paper_space(2);
  db.vocabulary = text::Vocabulary(data::table3_terms());
  std::stringstream buffer;
  core::try_save_database(buffer, db).or_throw();
  auto loaded = core::try_load_database(buffer).value();
  EXPECT_EQ(loaded.scheme.local, weighting::LocalWeight::kRawTf);
  EXPECT_TRUE(loaded.global_weights.empty());
}

TEST(SimilarityModes, AllProduceValidRankings) {
  auto space = paper_space(4);
  const auto q_hat = core::project_query(space, paper_query_raw());
  for (auto mode : {SimilarityMode::kColumnSpace, SimilarityMode::kProjected,
                    SimilarityMode::kPlainV}) {
    SearchOptions opts;
    opts.mode = mode;
    auto ranked = core::rank_documents(space, q_hat, opts);
    EXPECT_EQ(ranked.size(), 14u);
    for (std::size_t i = 1; i < ranked.size(); ++i) {
      EXPECT_LE(ranked[i].cosine, ranked[i - 1].cosine + 1e-12);
    }
    for (const auto& sd : ranked) {
      EXPECT_LE(std::abs(sd.cosine), 1.0 + 1e-12);
    }
  }
}

TEST(SimilarityModes, ModesActuallyDiffer) {
  auto space = paper_space(4);
  const auto q_hat = core::project_query(space, paper_query_raw());
  SearchOptions a, b;
  a.mode = SimilarityMode::kColumnSpace;
  b.mode = SimilarityMode::kPlainV;
  auto ra = core::rank_documents(space, q_hat, a);
  auto rb = core::rank_documents(space, q_hat, b);
  bool any_diff = false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    any_diff = any_diff || ra[i].doc != rb[i].doc ||
               std::abs(ra[i].cosine - rb[i].cosine) > 1e-9;
  }
  EXPECT_TRUE(any_diff);
}

TEST(QueryOptionsCombos, ThresholdAndTopZCompose) {
  auto space = paper_space(2);
  const auto q_hat = core::project_query(space, paper_query_raw());
  SearchOptions opts;
  opts.min_cosine = 0.5;
  opts.z = 3;
  auto ranked = core::rank_documents(space, q_hat, opts);
  EXPECT_LE(ranked.size(), 3u);
  for (const auto& sd : ranked) EXPECT_GE(sd.cosine, 0.5);
  // Threshold of 2.0 is unreachable: empty result, no crash.
  opts.min_cosine = 2.0;
  EXPECT_TRUE(core::rank_documents(space, q_hat, opts).empty());
}

TEST(Section45, UpdatingMovesM16TowardItsTermCentroid) {
  // The video narration: "SVD-updating appropriately moves the medical
  // topic M16 to the centroid of the term vectors corresponding to
  // depressed, patients, pressure, and fast." Compare the angle between
  // M16 and that term centroid under folding vs updating.
  const index_t depressed = 6, patients = 12, pressure = 13, fast = 9;

  auto folded = paper_space(2);
  core::fold_in_documents(folded, data::update_document_columns());
  auto updated = paper_space(2);
  core::update_documents(updated, data::update_document_columns());

  auto m16_vs_centroid = [&](const core::SemanticSpace& s) {
    la::Vector centroid(s.k(), 0.0);
    for (index_t t : {depressed, patients, pressure, fast}) {
      const auto coords = s.term_coords(t);
      for (index_t i = 0; i < s.k(); ++i) centroid[i] += coords[i] / 4.0;
    }
    const auto m16 = s.doc_coords(15);
    return la::cosine(m16, centroid);
  };
  EXPECT_GE(m16_vs_centroid(updated), m16_vs_centroid(folded) - 1e-9);
  EXPECT_GT(m16_vs_centroid(updated), 0.9);
}

TEST(RankTerms, QueryCanReturnTermsLikeAThesaurus) {
  // Section 5.4: "there is no reason that similar terms could not be
  // returned". Terms near the projected query "age blood abnormalities"
  // must include its own constituent terms.
  auto space = paper_space(2);
  la::Vector q_hat = core::project_query(space, paper_query_raw());
  // Scale into term-coordinate space (U S) for comparison against terms.
  for (index_t i = 0; i < space.k(); ++i) q_hat[i] *= space.sigma[i];
  auto terms = core::rank_terms(space, q_hat, 6);
  ASSERT_EQ(terms.size(), 6u);
  std::set<std::string> names;
  for (const auto& sd : terms) names.insert(data::table3_terms()[sd.doc]);
  EXPECT_TRUE(names.count("age") || names.count("blood") ||
              names.count("abnormalities") || names.count("respect"));
}

TEST(FoldThenUpdate, MixedIngestKeepsShapesConsistent) {
  auto index = core::LsiIndex::try_build(data::med_topics(), [] {
    core::IndexOptions opts;
    opts.parser.min_document_frequency = 2;
    opts.parser.fold_plurals = true;
    opts.scheme = weighting::kRaw;
    opts.k = 2;
    return opts;
  }()).value();
  index.add_documents({data::med_update_topics()[0]},
                      core::AddMethod::kFoldIn);
  index.add_documents({data::med_update_topics()[1]},
                      core::AddMethod::kSvdUpdate);
  EXPECT_EQ(index.space().num_docs(), 16u);
  EXPECT_EQ(index.doc_labels().size(), 16u);
  EXPECT_EQ(index.doc_labels()[15], "M16");
  auto results = index.query("depressed patients pressure fast");
  EXPECT_FALSE(results.empty());
}

TEST(QueryVector, MatchesTextQuery) {
  core::IndexOptions opts;
  opts.parser.min_document_frequency = 2;
  opts.parser.fold_plurals = true;
  opts.scheme = weighting::kRaw;
  opts.k = 2;
  auto index = core::LsiIndex::try_build(data::med_topics(), opts).value();
  auto by_text = index.query(data::kQueryText);
  auto by_vector = index.query_vector(paper_query_raw());
  ASSERT_EQ(by_text.size(), by_vector.size());
  for (std::size_t i = 0; i < by_text.size(); ++i) {
    EXPECT_EQ(by_text[i].doc, by_vector[i].doc);
    EXPECT_NEAR(by_text[i].cosine, by_vector[i].cosine, 1e-12);
  }
}

}  // namespace
