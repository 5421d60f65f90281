// Cluster-pruned retrieval integration tests: the exactness contract
// (nprobe >= num_centroids reproduces the exact ranking bit for bit, in
// every SimilarityMode, through the snapshot and the sharded scatter), the
// monotone recall@10 property behind the recall_target knob, the recall a
// few probes already reach, the exact fallback below the corpus cutoff, and
// coarse deadline enforcement on the try_* paths.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "lsi/batched_retrieval.hpp"
#include "lsi/lsi.hpp"
#include "synth/corpus.hpp"
#include "synth/sparse_random.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

std::shared_ptr<SemanticSpace> medium_space(index_t m, index_t n, index_t k,
                                            unsigned seed) {
  auto a = synth::random_sparse_matrix(m, n, 0.15, seed);
  auto space = std::make_shared<SemanticSpace>(
      try_build_semantic_space(a, k).value());
  space->prewarm_doc_norms();
  return space;
}

std::vector<la::Vector> sparse_queries(index_t m, std::size_t count,
                                       unsigned seed) {
  util::Rng rng(seed);
  std::vector<la::Vector> queries(count, la::Vector(m, 0.0));
  for (auto& q : queries) {
    for (int t = 0; t < 5; ++t) {
      q[rng.uniform_index(m)] = 1.0 + static_cast<double>(rng.uniform_index(3));
    }
  }
  return queries;
}

void expect_identical(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    EXPECT_EQ(got[i].cosine, want[i].cosine) << what << " rank " << i;
  }
}

TEST(AnnPruning, FullProbeBitIdenticalToExactForEveryMode) {
  auto space = medium_space(120, 300, 10, 41);
  AnnOptions aopts;
  aopts.exact_cutoff = 0;
  const auto ann = AnnIndex::build(*space, aopts, 1);
  ASSERT_NE(ann, nullptr);
  ASSERT_GT(ann->num_centroids(), 1u);

  const auto queries = sparse_queries(120, 12, 43);
  const BatchedRetriever pruned(space, ann);
  const BatchedRetriever exact(space);
  const auto batch = QueryBatch::from_term_vectors(*space, queries);

  for (SimilarityMode mode : {SimilarityMode::kColumnSpace,
                              SimilarityMode::kProjected,
                              SimilarityMode::kPlainV}) {
    SearchOptions popts;
    popts.mode = mode;
    popts.search = SearchMode::kPruned;
    popts.nprobe = ann->num_centroids();  // scan everything

    SearchOptions eopts;
    eopts.mode = mode;
    eopts.search = SearchMode::kExact;

    QueryStats pstats, estats;
    const auto p = pruned.rank(batch, popts, &pstats);
    const auto e = exact.rank(batch, eopts, &estats);
    ASSERT_EQ(p.size(), e.size());
    for (std::size_t q = 0; q < p.size(); ++q) {
      expect_identical(p[q], e[q], "full-probe parity");
    }
    // The pruned path actually ran (it is exact because nprobe == C, not
    // because it silently fell back).
    EXPECT_EQ(pstats.ann_pruned_queries, batch.size());
    EXPECT_EQ(estats.ann_pruned_queries, 0u);
  }
}

TEST(AnnPruning, RecallTargetOneBitIdenticalToExact) {
  auto space = medium_space(100, 250, 8, 47);
  AnnOptions aopts;
  aopts.exact_cutoff = 0;
  const auto ann = AnnIndex::build(*space, aopts, 1);
  ASSERT_NE(ann, nullptr);

  const auto queries = sparse_queries(100, 8, 53);
  const auto batch = QueryBatch::from_term_vectors(*space, queries);
  const BatchedRetriever retriever(space, ann);

  SearchOptions popts;
  popts.recall_target = 1.0;  // resolves to every centroid
  SearchOptions eopts;
  eopts.search = SearchMode::kExact;

  const auto p = retriever.rank(batch, popts);
  const auto e = retriever.rank(batch, eopts);
  ASSERT_EQ(p.size(), e.size());
  for (std::size_t q = 0; q < p.size(); ++q) {
    expect_identical(p[q], e[q], "recall_target=1.0");
  }
}

TEST(AnnPruning, RecallAtTenIsMonotoneInNprobe) {
  auto space = medium_space(120, 400, 10, 59);
  AnnOptions aopts;
  aopts.exact_cutoff = 0;
  const auto ann = AnnIndex::build(*space, aopts, 1);
  ASSERT_NE(ann, nullptr);
  const index_t c_total = ann->num_centroids();
  ASSERT_GT(c_total, 3u);

  const auto queries = sparse_queries(120, 16, 61);
  const auto batch = QueryBatch::from_term_vectors(*space, queries);
  const BatchedRetriever retriever(space, ann);

  SearchOptions eopts;
  eopts.search = SearchMode::kExact;
  eopts.z = 10;
  const auto exact = retriever.rank(batch, eopts);

  double prev_recall = -1.0;
  for (index_t p = 1; p <= c_total; ++p) {
    SearchOptions popts;
    popts.search = SearchMode::kPruned;
    popts.nprobe = p;
    popts.z = 10;
    const auto pruned = retriever.rank(batch, popts);

    double hit = 0.0, want = 0.0;
    for (std::size_t q = 0; q < pruned.size(); ++q) {
      std::set<index_t> truth;
      for (const auto& d : exact[q]) truth.insert(d.doc);
      for (const auto& d : pruned[q]) hit += truth.count(d.doc);
      want += static_cast<double>(truth.size());
    }
    const double recall = want > 0.0 ? hit / want : 1.0;
    EXPECT_GE(recall, prev_recall)
        << "recall@10 dropped when nprobe grew to " << p;
    prev_recall = recall;
  }
  EXPECT_DOUBLE_EQ(prev_recall, 1.0);  // full probe == exact
}

// A quarter of the posting lists already holds most of the exact top-10.
TEST(AnnPruning, FewProbesRecoverMostOfTheExactTop10) {
  auto space = std::make_shared<SemanticSpace>(
      try_build_semantic_space(synth::random_sparse_matrix(400, 360, 0.05, 3),
                               10)
          .value());
  AnnOptions aopts;
  aopts.exact_cutoff = 0;
  aopts.num_centroids = 18;
  const auto ann = AnnIndex::build(*space, aopts, 1);
  ASSERT_NE(ann, nullptr);

  std::vector<la::Vector> queries(20, la::Vector(400, 0.0));
  for (std::size_t t = 0; t < queries.size(); ++t) {
    queries[t][(t * 13) % 400] = 1.0;
    queries[t][(t * 29 + 7) % 400] = 1.0;
  }
  const auto batch = QueryBatch::from_term_vectors(*space, queries);
  const BatchedRetriever retriever(space, ann);

  SearchOptions eopts;
  eopts.search = SearchMode::kExact;
  eopts.z = 10;
  SearchOptions popts = eopts;
  popts.search = SearchMode::kPruned;
  popts.nprobe = 4;
  const auto exact = retriever.rank(batch, eopts);
  const auto pruned = retriever.rank(batch, popts);

  double hit = 0.0, want = 0.0;
  for (std::size_t q = 0; q < exact.size(); ++q) {
    std::set<index_t> truth;
    for (const auto& d : exact[q]) truth.insert(d.doc);
    for (const auto& d : pruned[q]) hit += truth.count(d.doc);
    want += static_cast<double>(truth.size());
  }
  EXPECT_GT(hit / want, 0.6);
}

TEST(AnnPruning, PrunedModeFallsBackToExactWithoutStructure) {
  auto space = medium_space(80, 120, 8, 67);
  const auto queries = sparse_queries(80, 6, 71);
  const auto batch = QueryBatch::from_term_vectors(*space, queries);

  // No AnnIndex attached: kPruned must degrade to the exact scan, counted
  // as a fallback, never crash or return empty results.
  const BatchedRetriever retriever(space, nullptr);
  SearchOptions popts;
  popts.search = SearchMode::kPruned;
  popts.nprobe = 2;
  QueryStats stats;
  const auto p = retriever.rank(batch, popts, &stats);
  EXPECT_EQ(stats.ann_pruned_queries, 0u);

  SearchOptions eopts;
  eopts.search = SearchMode::kExact;
  const auto e = retriever.rank(batch, eopts);
  ASSERT_EQ(p.size(), e.size());
  for (std::size_t q = 0; q < p.size(); ++q) {
    expect_identical(p[q], e[q], "fallback");
  }
}

TEST(AnnPruning, SnapshotBelowCutoffServesExact) {
  // ConcurrentIndexer with the default cutoff on a tiny corpus: the
  // snapshot carries no AnnIndex and kAuto queries take the exact path.
  synth::CorpusSpec spec;
  spec.topics = 3;
  spec.concepts_per_topic = 5;
  spec.docs_per_topic = 15;
  spec.queries_per_topic = 2;
  spec.seed = 73;
  const auto corpus = synth::generate_corpus(spec);

  IndexOptions iopts;
  iopts.k = 8;
  ConcurrentIndexer indexer(LsiIndex::try_build(corpus.docs, iopts).value());
  auto snap = indexer.snapshot();
  EXPECT_EQ(snap->ann(), nullptr);  // 45 docs < default exact_cutoff

  SearchOptions opts;
  opts.z = 5;
  const auto hits = snap->query(corpus.queries[0].text, opts);
  EXPECT_FALSE(hits.empty());
  indexer.shutdown();
}

TEST(AnnPruning, SnapshotFullProbeMatchesExactEndToEnd) {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 6;
  spec.docs_per_topic = 25;  // 100 docs
  spec.queries_per_topic = 2;
  spec.seed = 79;
  const auto corpus = synth::generate_corpus(spec);

  IndexOptions iopts;
  iopts.k = 10;
  ConcurrentOptions copts;
  copts.ann.exact_cutoff = 0;  // build the structure on this small corpus
  ConcurrentIndexer indexer(LsiIndex::try_build(corpus.docs, iopts).value(),
                            copts);
  auto snap = indexer.snapshot();
  ASSERT_NE(snap->ann(), nullptr);

  for (const auto& q : corpus.queries) {
    SearchOptions popts;
    popts.search = SearchMode::kPruned;
    popts.nprobe = snap->ann()->num_centroids();
    SearchOptions eopts;
    eopts.search = SearchMode::kExact;
    const auto p = snap->query(q.text, popts);
    const auto e = snap->query(q.text, eopts);
    ASSERT_EQ(p.size(), e.size()) << q.text;
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[i].doc, e[i].doc) << q.text << " rank " << i;
      EXPECT_EQ(p[i].cosine, e[i].cosine) << q.text << " rank " << i;
      EXPECT_EQ(p[i].label, e[i].label) << q.text << " rank " << i;
    }
  }
  indexer.shutdown();
}

TEST(AnnPruning, ShardedFullProbeMatchesExactAndReportsAnnState) {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 6;
  spec.docs_per_topic = 30;  // 120 docs over 2 shards
  spec.queries_per_topic = 2;
  spec.seed = 83;
  const auto corpus = synth::generate_corpus(spec);

  ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 12;
  sopts.concurrent.ann.exact_cutoff = 0;
  auto index = ShardedIndex::try_build(corpus.docs, sopts).value();

  const ShardedSnapshot view = index.snapshot();
  const auto infos = index.shard_infos(view);
  ASSERT_EQ(infos.size(), 2u);
  for (const auto& info : infos) {
    EXPECT_FALSE(info.ann_exact_fallback) << "shard " << info.shard;
    EXPECT_GT(info.ann_centroids, 0u) << "shard " << info.shard;
    EXPECT_EQ(info.ann_generation, info.generation) << "shard " << info.shard;
  }

  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);

  SearchOptions popts;
  popts.search = SearchMode::kPruned;
  popts.nprobe = 1u << 20;  // clamped to every shard's centroid count
  popts.z = 10;
  SearchOptions eopts;
  eopts.search = SearchMode::kExact;
  eopts.z = 10;

  const auto p = view.try_rank_batch(texts, popts).value();
  const auto e = view.try_rank_batch(texts, eopts).value();
  ASSERT_EQ(p.size(), e.size());
  for (std::size_t q = 0; q < p.size(); ++q) {
    expect_identical(p[q], e[q], texts[q].c_str());
  }
  index.shutdown();
}

TEST(AnnPruning, ExpiredDeadlineReportsDeadlineExceeded) {
  auto space = medium_space(80, 120, 8, 89);
  const auto queries = sparse_queries(80, 4, 97);
  const auto batch = QueryBatch::from_term_vectors(*space, queries);
  const BatchedRetriever retriever(space);

  SearchOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const auto ranked = retriever.try_rank(batch, opts);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kDeadlineExceeded);

  // A future deadline admits the batch normally.
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_TRUE(retriever.try_rank(batch, opts).ok());
}

TEST(AnnPruning, ShardedExpiredDeadlineReportsDeadlineExceeded) {
  synth::CorpusSpec spec;
  spec.topics = 3;
  spec.concepts_per_topic = 5;
  spec.docs_per_topic = 15;
  spec.queries_per_topic = 2;
  spec.seed = 101;
  const auto corpus = synth::generate_corpus(spec);

  ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 8;
  auto index = ShardedIndex::try_build(corpus.docs, sopts).value();

  const ShardedSnapshot view = index.snapshot();
  SearchOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const auto ranked = view.try_rank_batch({corpus.queries[0].text}, opts);
  ASSERT_FALSE(ranked.ok());
  EXPECT_EQ(ranked.status().code(), StatusCode::kDeadlineExceeded);

  // Invalid knobs surface as kInvalidArgument from the same checked entry.
  SearchOptions bad;
  bad.search = SearchMode::kExact;
  bad.nprobe = 3;
  const auto invalid = view.try_rank_batch({corpus.queries[0].text}, bad);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  index.shutdown();
}

}  // namespace
