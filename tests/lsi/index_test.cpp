// LsiIndex end-to-end API tests, plus persistence (io) and flop-model tests.

#include <gtest/gtest.h>

#include <sstream>

#include "data/med_topics.hpp"
#include "lsi/flops.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"

namespace {

using namespace lsi;
using core::AddMethod;
using core::IndexOptions;
using core::LsiIndex;

IndexOptions paper_index_options(core::index_t k) {
  IndexOptions opts;
  opts.parser.min_document_frequency = 2;
  opts.parser.fold_plurals = true;
  opts.scheme = weighting::kRaw;  // the paper's example is unweighted
  opts.k = k;
  return opts;
}

TEST(LsiIndex, BuildsPaperExample) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  EXPECT_EQ(index.vocabulary().size(), 18u);
  EXPECT_EQ(index.doc_labels().size(), 14u);
  EXPECT_EQ(index.space().k(), 2u);
}

TEST(LsiIndex, QueryReturnsLabelledResults) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  auto results = index.query(data::kQueryText);
  ASSERT_FALSE(results.empty());
  // Top 3 = {M8, M9, M12} as established by the paper-example tests.
  std::set<std::string> top;
  for (int i = 0; i < 3; ++i) top.insert(results[i].label);
  EXPECT_EQ(top, (std::set<std::string>{"M8", "M9", "M12"}));
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].cosine, results[i - 1].cosine);
  }
}

TEST(LsiIndex, QueryOptionsThresholdAndTopZ) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  core::SearchOptions opts;
  opts.z = 2;
  EXPECT_EQ(index.query(data::kQueryText, opts).size(), 2u);
  opts.z = 0;
  opts.min_cosine = 0.99;
  for (const auto& r : index.query(data::kQueryText, opts)) {
    EXPECT_GE(r.cosine, 0.99);
  }
}

TEST(LsiIndex, AddDocumentsFoldIn) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  index.add_documents(data::med_update_topics(), AddMethod::kFoldIn);
  EXPECT_EQ(index.doc_labels().size(), 16u);
  EXPECT_EQ(index.doc_labels()[14], "M15");
  EXPECT_EQ(index.space().num_docs(), 16u);
  // The new documents are retrievable.
  auto results = index.query("depressed patients pressure fast");
  ASSERT_FALSE(results.empty());
  bool found_m16 = false;
  for (std::size_t i = 0; i < 5 && i < results.size(); ++i) {
    found_m16 = found_m16 || results[i].label == "M16";
  }
  EXPECT_TRUE(found_m16);
}

TEST(LsiIndex, AddDocumentsSvdUpdate) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  index.add_documents(data::med_update_topics(), AddMethod::kSvdUpdate);
  EXPECT_EQ(index.space().num_docs(), 16u);
  EXPECT_LT(core::orthogonality_loss(index.space().v), 1e-9);
}

TEST(LsiIndex, SimilarTermsFindsClusterMates) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  auto sims = index.similar_terms("oestrogen", 5);
  ASSERT_FALSE(sims.empty());
  // "depressed" co-occurs with oestrogen in M3/M4 and must rank high.
  bool found = false;
  for (const auto& [term, cos] : sims) found = found || term == "depressed";
  EXPECT_TRUE(found);
}

TEST(LsiIndex, SimilarTermsUnknownTermEmpty) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(2)).value();
  EXPECT_TRUE(index.similar_terms("automobile").empty());
}

TEST(LsiIndex, WeightedSchemeAppliesGlobals) {
  IndexOptions opts = paper_index_options(2);
  opts.scheme = weighting::kLogEntropy;
  auto index = LsiIndex::try_build(data::med_topics(), opts).value();
  EXPECT_EQ(index.global_weights().size(), 18u);
  // Entropy weights lie in [0, 1].
  for (double g : index.global_weights()) {
    EXPECT_GE(g, -1e-12);
    EXPECT_LE(g, 1.0 + 1e-12);
  }
}

TEST(Io, RoundTripsDatabase) {
  auto index = LsiIndex::try_build(data::med_topics(), paper_index_options(3)).value();
  core::LsiDatabase db;
  db.space = index.space();
  db.vocabulary = index.vocabulary();
  db.doc_labels = index.doc_labels();
  std::stringstream buffer;
  core::try_save_database(buffer, db).or_throw();
  auto loaded = core::try_load_database(buffer).value();
  EXPECT_EQ(loaded.vocabulary.size(), 18u);
  EXPECT_EQ(loaded.doc_labels.size(), 14u);
  EXPECT_EQ(loaded.space.k(), 3u);
  EXPECT_LT(la::max_abs_diff(loaded.space.u, index.space().u), 0.0 + 1e-15);
  for (core::index_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(loaded.space.sigma[i], index.space().sigma[i]);
  }
  EXPECT_EQ(loaded.vocabulary.term(0), "abnormalities");
}

TEST(Io, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "this is not an LSI database";
  EXPECT_THROW(core::try_load_database(buffer).value(), std::runtime_error);
}

TEST(Flops, FoldingFormulasExact) {
  core::FlopModelParams x;
  x.m = 100;
  x.n = 50;
  x.k = 10;
  x.p = 5;
  x.q = 3;
  EXPECT_EQ(core::flops_fold_documents(x), 2ull * 100 * 10 * 5);
  EXPECT_EQ(core::flops_fold_terms(x), 2ull * 50 * 10 * 3);
}

TEST(Flops, UpdatingDominatedByDenseRotation) {
  // The paper: SVD-updating's expense is the O(2k^2 m + 2k^2 n) dense
  // multiplications. For small D the rotation term must dominate.
  core::FlopModelParams x;
  x.m = 10000;
  x.n = 5000;
  x.k = 100;
  x.p = 10;
  x.nnz_d = 500;
  x.iterations = 20;
  x.triplets = 100;
  const auto total = core::flops_update_documents(x);
  const auto rotation = (2 * x.k * x.k - x.k) * (x.m + x.n);
  EXPECT_GT(rotation * 2, total);  // rotation is at least half the cost
}

TEST(Flops, FoldingBeatsUpdatingForFewDocs) {
  // "folding-in will still require considerably fewer flops than
  // SVD-updating when adding d new documents provided d << n".
  core::FlopModelParams x;
  x.m = 5000;
  x.n = 2000;
  x.k = 50;
  x.p = 20;
  x.nnz_d = 600;
  x.iterations = 30;
  x.triplets = 50;
  EXPECT_LT(core::flops_fold_documents(x), core::flops_update_documents(x));
}

TEST(Flops, RecomputeScalesWithNnz) {
  core::FlopModelParams small;
  small.m = 1000;
  small.n = 800;
  small.nnz_a = 5000;
  small.iterations = 50;
  small.triplets = 20;
  core::FlopModelParams big = small;
  big.nnz_a = 50000;
  EXPECT_GT(core::flops_recompute(big), core::flops_recompute(small));
}

}  // namespace
