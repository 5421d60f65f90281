// Regression tests against the paper's running example: the Figure 5
// numerical oracles, the Table 4 rankings, and the Section 3.2 comparison
// with lexical matching.
//
// The paper's printed example is internally inconsistent in small ways (its
// Table 3 "respect" row contradicts the topic text; Table 4's k=2 cosines
// at threshold .75 contradict Section 3.2's claim that only M7/M11 join).
// These tests therefore assert *structure* — orientation, clusters, top-set
// composition — with tolerances reflecting the one-cell ambiguity, and the
// exact measured values are reported by the bench binaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "baseline/lexical.hpp"
#include "data/med_topics.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/semantic_space.hpp"
#include "text/parser.hpp"

namespace {

using namespace lsi;
using core::SearchOptions;
using core::ScoredDoc;
using core::SemanticSpace;

SemanticSpace paper_space(core::index_t k) {
  auto space = core::try_build_semantic_space(data::table3_counts(), k).value();
  core::align_signs_to(space, data::figure5_u2());
  return space;
}

la::Vector paper_query() {
  la::Vector q(18, 0.0);
  q[0] = 1.0;  // abnormalities
  q[1] = 1.0;  // age
  q[3] = 1.0;  // blood
  return q;
}

std::set<std::string> labels_of(const std::vector<ScoredDoc>& ranked,
                                std::size_t take) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < std::min(take, ranked.size()); ++i) {
    std::string label = "M";
    label += std::to_string(ranked[i].doc + 1);
    out.insert(std::move(label));
  }
  return out;
}

TEST(Figure5, SingularValuesNearPaper) {
  auto space = paper_space(2);
  // Printed Table 3 yields (3.5136, 2.6464); the paper prints
  // (3.5919, 2.6471) — the example's known internal drift.
  EXPECT_NEAR(space.sigma[0], data::figure5_sigma()[0], 0.09);
  EXPECT_NEAR(space.sigma[1], data::figure5_sigma()[1], 0.09);
}

TEST(Figure5, U2MatchesPaperStructure) {
  auto space = paper_space(2);
  const auto& paper = data::figure5_u2();
  for (core::index_t i = 0; i < 18; ++i) {
    EXPECT_NEAR(space.u(i, 0), paper(i, 0), 0.08) << "row " << i << " col 0";
    EXPECT_NEAR(space.u(i, 1), paper(i, 1), 0.08) << "row " << i << " col 1";
  }
  // First factor is nonnegative across terms (the Perron-like direction).
  for (core::index_t i = 0; i < 18; ++i) EXPECT_GT(space.u(i, 0), -1e-9);
}

TEST(Figure5, QueryCoordinatesNearPaper) {
  auto space = paper_space(2);
  auto q_hat = core::project_query(space, paper_query());
  EXPECT_NEAR(q_hat[0], data::figure5_query_coords()[0], 0.05);
  EXPECT_NEAR(q_hat[1], data::figure5_query_coords()[1], 0.05);
}

TEST(Figure5, QueryFormulaIsSumOfTermRowsOverSigma) {
  // Equation 6 closed form: q_hat_i = (U[abn,i] + U[age,i] + U[blood,i])/s_i.
  auto space = paper_space(2);
  auto q_hat = core::project_query(space, paper_query());
  for (int i = 0; i < 2; ++i) {
    const double expect =
        (space.u(0, i) + space.u(1, i) + space.u(3, i)) / space.sigma[i];
    EXPECT_NEAR(q_hat[i], expect, 1e-12);
  }
}

TEST(Figure4, ClustersMatchPaperDescription) {
  // "documents and terms pertaining to patient behavior or hormone
  // production are clustered above the x-axis while ... blood disease or
  // fasting are clustered near the lower y-axis."
  auto space = paper_space(2);
  // Terms: depressed (6), discharge (7), oestrogen (11) above axis.
  EXPECT_GT(space.u(6, 1), 0.0);
  EXPECT_GT(space.u(7, 1), 0.0);
  EXPECT_GT(space.u(11, 1), 0.0);
  // fast (9), rats (14), pressure (13) well below.
  EXPECT_LT(space.u(9, 1), -0.2);
  EXPECT_LT(space.u(14, 1), -0.2);
  EXPECT_LT(space.u(13, 1), -0.2);
  // Documents: M3, M4 (hormone) above; M13, M14 (fast/rats) below.
  EXPECT_GT(space.doc_coords(2)[1], 0.0);
  EXPECT_GT(space.doc_coords(3)[1], 0.0);
  EXPECT_LT(space.doc_coords(12)[1], 0.0);
  EXPECT_LT(space.doc_coords(13)[1], 0.0);
}

TEST(Table4, K2TopSetMatchesPaper) {
  auto space = paper_space(2);
  auto ranked = core::retrieve(space, paper_query());
  // Paper's top three at k=2: {M9, M12, M8} (cosines 1.00/.88/.85).
  EXPECT_EQ(labels_of(ranked, 3),
            (std::set<std::string>{"M8", "M9", "M12"}));
  // Next tier: {M11, M10} in the paper (.82/.79).
  auto top5 = labels_of(ranked, 5);
  EXPECT_TRUE(top5.count("M11"));
  EXPECT_TRUE(top5.count("M10"));
}

TEST(Table4, K2ReturnedSetAtThreshold40) {
  auto space = paper_space(2);
  SearchOptions opts;
  opts.min_cosine = 0.40;
  auto ranked = core::retrieve(space, paper_query(), opts);
  // Paper returns 11 documents; every one of them must be present.
  auto got = labels_of(ranked, ranked.size());
  for (const auto& row : data::table4_ranking(2)) {
    EXPECT_TRUE(got.count(row.label)) << row.label;
  }
  // And irrelevant hormone topics M3/M5/M6 must stay out.
  EXPECT_FALSE(got.count("M5"));
  EXPECT_FALSE(got.count("M6"));
}

TEST(Table4, HigherKSharpensTheReturnedSet) {
  // Paper: k=4 returns 6 docs, k=8 only 3 ({M8, M12, M10}) at cosine .40 —
  // more factors reconstruct A more exactly, so fewer latent matches.
  SearchOptions opts;
  opts.min_cosine = 0.40;
  auto r2 = core::retrieve(paper_space(2), paper_query(), opts);
  auto r4 = core::retrieve(paper_space(4), paper_query(), opts);
  auto r8 = core::retrieve(paper_space(8), paper_query(), opts);
  EXPECT_GT(r2.size(), r4.size());
  EXPECT_GE(r4.size(), r8.size());
  auto top8 = labels_of(r8, r8.size());
  EXPECT_TRUE(top8.count("M8"));
  EXPECT_TRUE(top8.count("M12"));
  EXPECT_TRUE(top8.count("M10"));
}

TEST(Table4, M9RanksHighAtK2ButLexicalMissesIt) {
  // The paper's motivating observation: M9 ("christmas disease" =
  // haemophilia) is the most relevant topic, found by LSI but invisible to
  // literal matching (it shares no query term).
  auto space = paper_space(2);
  auto ranked = core::retrieve(space, paper_query());
  std::size_t m9_rank = 99;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].doc == 8) m9_rank = i;
  }
  EXPECT_LT(m9_rank, 3u);

  auto hits = baseline::lexical_match(data::table3_counts(), paper_query());
  for (const auto& h : hits) EXPECT_NE(h.doc, 8u);
}

TEST(Section32, LexicalMatchingReturnsPaperSet) {
  auto hits = baseline::lexical_match(data::table3_counts(), paper_query());
  std::set<std::string> got;
  for (const auto& h : hits) {
    std::string label = "M";
    label += std::to_string(h.doc + 1);
    got.insert(std::move(label));
  }
  const auto& expect = data::lexical_match_results();
  EXPECT_EQ(got, std::set<std::string>(expect.begin(), expect.end()));
}

TEST(Section32, ParsedTextMatrixAlsoWorks) {
  // End-to-end: parse the Table 2 texts (not the verbatim matrix), build a
  // k=2 space, and check that LSI still surfaces M9 in the top 3 and that
  // the blood/fasting cluster separates from the hormone cluster.
  text::ParserOptions popts;
  popts.min_document_frequency = 2;
  popts.fold_plurals = true;
  auto tdm = text::build_term_document_matrix(data::med_topics(), popts);
  auto space = core::try_build_semantic_space(tdm.counts, 2).value();
  auto q = text::text_to_term_vector(tdm, data::kQueryText, popts);
  auto ranked = core::retrieve(space, q);
  EXPECT_EQ(labels_of(ranked, 3),
            (std::set<std::string>{"M8", "M9", "M12"}));
}

TEST(TermSimilarity, PolysemyExample) {
  // "Although topics M1 and M2 share the polysemous terms culture and
  // discharge they are not represented by nearly identical vectors". At
  // k=2 everything in the upper cluster is nearly collinear; the
  // discrimination the paper describes emerges with a few more factors,
  // where the genuinely-similar hormone pair M3/M4 outscores the merely
  // word-sharing pair M1/M2.
  auto space = paper_space(4);
  const double m1_m2 = core::document_similarity(space, 0, 1);
  EXPECT_LT(m1_m2, 0.97);
  const double m3_m4 = core::document_similarity(space, 2, 3);
  EXPECT_GT(m3_m4, m1_m2);
}

}  // namespace
