// Batched retrieval engine tests: the contract is that a query ranked in a
// batch of any size returns *bit-identical* results (documents, scores, and
// tie-breaks) to the same query ranked alone, for every SimilarityMode, and
// that min_cosine is applied before top-z selection.

#include <gtest/gtest.h>

#include <vector>

#include "lsi/batched_retrieval.hpp"
#include "lsi/retrieval.hpp"
#include "synth/sparse_random.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

std::vector<la::Vector> sparse_queries(index_t m, std::size_t count,
                                       unsigned seed) {
  util::Rng rng(seed);
  std::vector<la::Vector> queries(count, la::Vector(m, 0.0));
  for (auto& q : queries) {
    for (int t = 0; t < 4; ++t) {
      q[rng.uniform_index(m)] = 1.0 + static_cast<double>(rng.uniform_index(3));
    }
  }
  return queries;
}

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
    EXPECT_EQ(got[i].cosine, want[i].cosine) << "rank " << i;  // exact bits
  }
}

TEST(BatchedRetrieval, BitIdenticalToSingleForEveryMode) {
  auto a = synth::random_sparse_matrix(40, 25, 0.3, 7);
  auto space = try_build_semantic_space(a, 6).value();
  const auto queries = sparse_queries(40, 10, 11);
  const BatchedRetriever retriever(space);

  for (SimilarityMode mode : {SimilarityMode::kColumnSpace,
                              SimilarityMode::kProjected,
                              SimilarityMode::kPlainV}) {
    SearchOptions opts;
    opts.mode = mode;
    const auto batch = QueryBatch::from_term_vectors(space, queries);
    const auto ranked = retriever.rank(batch, opts);
    ASSERT_EQ(ranked.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      expect_identical(ranked[q],
                       retrieve(space, queries[q], opts));
    }
  }
}

TEST(BatchedRetrieval, BatchSizeDoesNotChangeResults) {
  auto a = synth::random_sparse_matrix(35, 20, 0.3, 3);
  auto space = try_build_semantic_space(a, 5).value();
  const auto queries = sparse_queries(35, 12, 17);
  const BatchedRetriever retriever(space);
  SearchOptions opts;
  opts.z = 5;

  const auto all = retriever.rank(QueryBatch::from_term_vectors(space, queries),
                                  opts);
  // Re-rank the same queries in blocks of 5 (last block ragged).
  for (std::size_t lo = 0; lo < queries.size(); lo += 5) {
    const std::size_t hi = std::min(queries.size(), lo + 5);
    const std::vector<la::Vector> block(queries.begin() + lo,
                                        queries.begin() + hi);
    const auto part =
        retriever.rank(QueryBatch::from_term_vectors(space, block), opts);
    for (std::size_t b = 0; b < part.size(); ++b) {
      expect_identical(part[b], all[lo + b]);
    }
  }
}

TEST(BatchedRetrieval, FromProjectedMatchesRankDocuments) {
  auto a = synth::random_sparse_matrix(30, 18, 0.35, 9);
  auto space = try_build_semantic_space(a, 4).value();
  const auto queries = sparse_queries(30, 6, 23);

  std::vector<la::Vector> qhats;
  for (const auto& q : queries) qhats.push_back(project_query(space, q));

  SearchOptions opts;
  opts.z = 7;
  const auto ranked = BatchedRetriever(space).rank(
      QueryBatch::from_projected(space, qhats), opts);
  for (std::size_t q = 0; q < qhats.size(); ++q) {
    expect_identical(ranked[q],
                     rank_documents(space, qhats[q], opts));
  }
}

TEST(BatchedRetrieval, TiesBreakByAscendingDocIndex) {
  // Documents 2 and 5 occupy the same point in factor space, so their
  // cosines are computed from identical inputs and must tie exactly; the
  // deterministic order puts the lower index first.
  SemanticSpace space;
  util::Rng rng(31);
  const index_t m = 12, n = 8, k = 3;
  space.u = la::DenseMatrix(m, k);
  space.v = la::DenseMatrix(n, k);
  for (index_t j = 0; j < k; ++j) {
    for (auto& x : space.u.col(j)) x = rng.normal();
    for (auto& x : space.v.col(j)) x = rng.normal();
    space.sigma.push_back(static_cast<double>(k - j));
  }
  for (index_t i = 0; i < k; ++i) space.v(5, i) = space.v(2, i);

  const auto queries = sparse_queries(m, 3, 41);
  for (const auto& q : queries) {
    const auto ranked = retrieve(space, q, {});
    ASSERT_EQ(ranked.size(), n);
    std::size_t pos2 = n, pos5 = n;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].doc == 2) pos2 = i;
      if (ranked[i].doc == 5) pos5 = i;
    }
    ASSERT_LT(pos2, n);
    ASSERT_LT(pos5, n);
    EXPECT_EQ(ranked[pos2].cosine, ranked[pos5].cosine);
    EXPECT_EQ(pos5, pos2 + 1);  // tied pair is adjacent, lower doc first
  }
}

TEST(BatchedRetrieval, ThresholdAppliesBeforeTopZ) {
  auto a = synth::random_sparse_matrix(30, 20, 0.3, 13);
  auto space = try_build_semantic_space(a, 5).value();
  const auto queries = sparse_queries(30, 5, 29);

  for (const auto& q : queries) {
    const auto full = retrieve(space, q, {});  // all docs, ranked
    ASSERT_EQ(full.size(), 20u);
    // Threshold at the 8th-best cosine: the bounded heap (z = 4 < number
    // passing) must return the best 4 *of the passing documents* — identical
    // to filtering the full ranking and truncating.
    SearchOptions opts;
    opts.min_cosine = full[7].cosine;
    opts.z = 4;
    std::vector<ScoredDoc> want;
    for (const auto& sd : full) {
      if (sd.cosine >= opts.min_cosine && want.size() < opts.z) {
        want.push_back(sd);
      }
    }
    expect_identical(retrieve(space, q, opts), want);

    // z larger than the passing set: returns exactly the passing set.
    opts.z = 15;
    std::vector<ScoredDoc> passing;
    for (const auto& sd : full) {
      if (sd.cosine >= opts.min_cosine) passing.push_back(sd);
    }
    ASSERT_LT(passing.size(), opts.z);
    expect_identical(retrieve(space, q, opts), passing);
  }
}

TEST(BatchedRetrieval, EmptyBatch) {
  auto a = synth::random_sparse_matrix(20, 12, 0.4, 19);
  auto space = try_build_semantic_space(a, 4).value();
  const BatchedRetriever retriever(space);
  const auto batch = QueryBatch::from_term_vectors(space, {});
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(retriever.scores(batch, SimilarityMode::kColumnSpace).cols(), 0u);
  EXPECT_TRUE(retriever.rank(batch).empty());
}

TEST(BatchedRetrieval, ZeroNormQueryScoresZeroEverywhere) {
  auto a = synth::random_sparse_matrix(25, 15, 0.35, 5);
  auto space = try_build_semantic_space(a, 4).value();
  const la::Vector zero(25, 0.0);
  const auto ranked = retrieve(space, zero, {});
  ASSERT_EQ(ranked.size(), 15u);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].cosine, 0.0);
    EXPECT_EQ(ranked[i].doc, i);  // all tied at 0: doc-index order
  }
}

TEST(BatchedRetrieval, BatchLargerThanCollection) {
  auto a = synth::random_sparse_matrix(30, 9, 0.4, 2);
  auto space = try_build_semantic_space(a, 4).value();
  const auto queries = sparse_queries(30, 40, 37);  // B = 40 > n = 9
  SearchOptions opts;
  opts.z = 3;
  const auto ranked = BatchedRetriever(space).rank(
      QueryBatch::from_term_vectors(space, queries), opts);
  ASSERT_EQ(ranked.size(), 40u);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_identical(ranked[q],
                     retrieve(space, queries[q], opts));
  }
}

TEST(BatchedRetrieval, TopZExceedsNumDocs) {
  // z beyond the collection size is a clean no-op on selection: every
  // document passing the threshold comes back, in canonical order.
  auto a = synth::random_sparse_matrix(30, 9, 0.4, 2);
  auto space = try_build_semantic_space(a, 4).value();
  const auto queries = sparse_queries(30, 4, 53);
  SearchOptions opts;
  opts.z = 50;  // n = 9
  const auto ranked = BatchedRetriever(space).rank(
      QueryBatch::from_term_vectors(space, queries), opts);
  ASSERT_EQ(ranked.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(ranked[q].size(), 9u);
    expect_identical(ranked[q], retrieve(space, queries[q], {}));
  }
}

TEST(BatchedRetrieval, TryFromTermVectorsReportsBadLengths) {
  auto a = synth::random_sparse_matrix(20, 12, 0.4, 19);
  auto space = try_build_semantic_space(a, 4).value();

  // Valid input: same batch as the unchecked factory.
  const auto queries = sparse_queries(20, 3, 59);
  auto good = QueryBatch::try_from_term_vectors(space, queries);
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  EXPECT_EQ(good->size(), 3);
  EXPECT_EQ(good->k(), space.k());

  // Empty input: a valid empty batch, not an error.
  auto empty = QueryBatch::try_from_term_vectors(space, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0);

  // One vector of the wrong length: kInvalidArgument naming the offender.
  std::vector<la::Vector> bad = queries;
  bad[1] = la::Vector(7, 0.0);
  auto status = QueryBatch::try_from_term_vectors(space, bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.status().message().find("1"), std::string::npos);
}

TEST(BatchedRetrieval, TryFromProjectedReportsBadLengths) {
  auto a = synth::random_sparse_matrix(20, 12, 0.4, 19);
  auto space = try_build_semantic_space(a, 4).value();

  std::vector<la::Vector> qhats = {la::Vector(space.k(), 0.5),
                                   la::Vector(space.k(), 1.0)};
  auto good = QueryBatch::try_from_projected(space, qhats);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 2);

  qhats.push_back(la::Vector(space.k() + 1, 0.0));
  auto status = QueryBatch::try_from_projected(space, qhats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchedRetrieval, TryRankRejectsForeignBatch) {
  auto a = synth::random_sparse_matrix(25, 14, 0.35, 43);
  auto space4 = try_build_semantic_space(a, 4).value();
  auto space6 = try_build_semantic_space(a, 6).value();
  const auto queries = sparse_queries(25, 3, 61);

  const auto batch = QueryBatch::from_term_vectors(space4, queries);
  const BatchedRetriever retriever(space6);

  auto mismatched = retriever.try_rank(batch);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // The same call against the right space agrees with the unchecked path,
  // and an empty batch is accepted by any retriever.
  auto ranked = BatchedRetriever(space4).try_rank(batch);
  ASSERT_TRUE(ranked.ok());
  const auto want = BatchedRetriever(space4).rank(batch);
  ASSERT_EQ(ranked->size(), want.size());
  for (std::size_t q = 0; q < want.size(); ++q) {
    expect_identical((*ranked)[q], want[q]);
  }
  auto empty = retriever.try_rank(QueryBatch());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(BatchedRetrieval, DocNormCacheInvalidatesOnMutation) {
  auto a = synth::random_sparse_matrix(25, 14, 0.35, 43);
  auto space = try_build_semantic_space(a, 4).value();
  const auto queries = sparse_queries(25, 3, 47);

  // Fill the cache, then mutate V in place (same row count, so only the
  // explicit invalidation protects against stale norms).
  (void)retrieve(space, queries[0], {});
  for (index_t i = 0; i < space.k(); ++i) space.v(3, i) *= 2.5;
  space.invalidate_doc_norms();

  SemanticSpace fresh;
  fresh.u = space.u;
  fresh.v = space.v;
  fresh.sigma = space.sigma;
  for (const auto& q : queries) {
    expect_identical(retrieve(space, q, {}), retrieve(fresh, q, {}));
  }
}

}  // namespace
