// ConcurrentIndexer functional tests: snapshot visibility, pinning,
// consolidation, backpressure status mapping, shutdown semantics. The
// multi-thread race coverage lives in concurrent_stress_test.cpp (label
// "stress", run under ThreadSanitizer in CI).

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "obs/trace.hpp"
#include "synth/corpus.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace lsi;

synth::SyntheticCorpus small_corpus(std::uint64_t seed) {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 8;
  spec.docs_per_topic = 15;
  spec.queries_per_topic = 2;
  spec.seed = seed;
  return synth::generate_corpus(spec);
}

core::LsiIndex base_index(const synth::SyntheticCorpus& corpus,
                          std::size_t train) {
  text::Collection head(corpus.docs.begin(), corpus.docs.begin() + train);
  core::IndexOptions opts;
  opts.k = 12;
  return core::LsiIndex::try_build(head, opts).value();
}

std::uint64_t counter(const obs::Sink& sink, std::string_view name) {
  for (const auto& [key, value] : sink.metrics().counters()) {
    if (key == name) return value;
  }
  return 0;
}

TEST(Concurrent, BaseIndexServableBeforeAnyAdd) {
  auto corpus = small_corpus(1);
  core::ConcurrentIndexer indexer(base_index(corpus, 40));
  auto snap = indexer.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation(), 1u);
  EXPECT_EQ(snap->space().num_docs(), 40u);
  EXPECT_EQ(snap->doc_labels().size(), 40u);
  EXPECT_EQ(indexer.publishes(), 1u);

  auto results = snap->query(corpus.queries[0].text);
  EXPECT_FALSE(results.empty());
}

TEST(Concurrent, AddedDocumentVisibleAfterFlush) {
  auto corpus = small_corpus(2);
  core::ConcurrentIndexer indexer(base_index(corpus, 40));
  const auto& doc = corpus.docs[40];
  ASSERT_TRUE(indexer.add(doc).ok());
  indexer.flush();

  auto snap = indexer.snapshot();
  EXPECT_EQ(snap->space().num_docs(), 41u);
  EXPECT_EQ(snap->doc_labels().back(), doc.label);
  EXPECT_EQ(indexer.ingested(), 1u);
  EXPECT_GE(snap->generation(), 2u);

  // The document must be findable right away (fold-in semantics).
  auto results = snap->query(doc.body);
  bool found = false;
  for (std::size_t i = 0; i < 3 && i < results.size(); ++i) {
    found = found || results[i].label == doc.label;
  }
  EXPECT_TRUE(found);
}

TEST(Concurrent, SnapshotIsPinnedWhileWriterAdvances) {
  auto corpus = small_corpus(3);
  core::ConcurrentIndexer indexer(base_index(corpus, 40));
  auto old_snap = indexer.snapshot();
  const auto before = old_snap->query(corpus.queries[0].text);

  for (std::size_t d = 40; d < 50; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();

  // The writer has moved on...
  auto new_snap = indexer.snapshot();
  EXPECT_EQ(new_snap->space().num_docs(), 50u);
  EXPECT_GT(new_snap->generation(), old_snap->generation());

  // ...but the pinned snapshot still answers bit-identically.
  EXPECT_EQ(old_snap->space().num_docs(), 40u);
  const auto after = old_snap->query(corpus.queries[0].text);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].label, before[i].label);
    EXPECT_EQ(after[i].cosine, before[i].cosine);
    EXPECT_EQ(after[i].doc, before[i].doc);
  }
}

TEST(Concurrent, ConsolidationRestoresOrthogonality) {
  auto corpus = small_corpus(4);
  core::ConcurrentOptions opts;
  opts.consolidate_every = 0;  // manual only
  core::ConcurrentIndexer indexer(base_index(corpus, 30), opts);
  for (std::size_t d = 30; d < 50; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();

  auto folded = indexer.snapshot();
  EXPECT_EQ(folded->unconsolidated(), 20u);
  EXPECT_GT(core::orthogonality_loss(folded->space().v), 1e-8);

  ASSERT_TRUE(indexer.consolidate().ok());
  auto consolidated = indexer.snapshot();
  EXPECT_EQ(consolidated->unconsolidated(), 0u);
  EXPECT_EQ(consolidated->space().num_docs(), 50u);
  EXPECT_LT(core::orthogonality_loss(consolidated->space().v), 1e-9);
  EXPECT_EQ(indexer.consolidations(), 1u);
}

TEST(Concurrent, AutomaticConsolidationFollowsBudget) {
  auto corpus = small_corpus(5);
  core::ConcurrentOptions opts;
  opts.consolidate_every = 5;
  core::ConcurrentIndexer indexer(base_index(corpus, 30), opts);
  for (std::size_t d = 30; d < 45; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();
  EXPECT_EQ(indexer.consolidations(), 3u);
  EXPECT_EQ(indexer.snapshot()->space().num_docs(), 45u);
  EXPECT_EQ(indexer.snapshot()->unconsolidated(), 0u);
}

TEST(Concurrent, PublishedNormCachesAreWarm) {
  auto corpus = small_corpus(6);
  core::ConcurrentIndexer indexer(base_index(corpus, 40));
  ASSERT_TRUE(indexer.add(corpus.docs[40]).ok());
  indexer.flush();
  auto snap = indexer.snapshot();

  // Reading norms off a published snapshot must be a pure cache hit (the
  // lazy fill is not thread-safe; publish prewarms by construction).
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  for (std::size_t m = 0; m < core::kNumSimilarityModes; ++m) {
    const auto& norms =
        snap->space().doc_norms(static_cast<core::SimilarityMode>(m));
    EXPECT_EQ(norms.size(), snap->space().num_docs());
  }
  std::uint64_t hits = 0, misses = 0;
  for (const auto& [name, value] : sink.metrics().counters()) {
    if (name == "retrieval.norm_cache.hit") hits = value;
    if (name == "retrieval.norm_cache.miss") misses = value;
  }
  EXPECT_EQ(hits, core::kNumSimilarityModes);
  EXPECT_EQ(misses, 0u);
}

TEST(Concurrent, FoldInPublishesNeverRefillNormCaches) {
  auto corpus = small_corpus(9);
  core::ConcurrentOptions opts;
  opts.consolidate_every = 0;  // fold-ins only, until consolidate() below
  core::ConcurrentIndexer indexer(base_index(corpus, 40), opts);

  // The writer's master space is warm from the first publish on, so every
  // fold-in publish extends its caches by the new rows (one extension per
  // document per mode) and never recomputes a full norm vector.
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const std::uint64_t publishes_before = indexer.publishes();
  for (std::size_t d = 40; d < 52; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
    if (d % 3 == 2) indexer.flush();
  }
  indexer.flush();
  EXPECT_GE(indexer.publishes() - publishes_before, 4u);
  EXPECT_EQ(counter(sink, "retrieval.norm_cache.miss"), 0u);
  EXPECT_EQ(counter(sink, "retrieval.norm_cache.extend"),
            12 * core::kNumSimilarityModes);

  // A consolidation rotates V: its publish refills each mode exactly once
  // (on the master; the published copy inherits the warm caches).
  ASSERT_TRUE(indexer.consolidate().ok());
  EXPECT_EQ(indexer.consolidations(), 1u);
  EXPECT_EQ(counter(sink, "retrieval.norm_cache.miss"),
            core::kNumSimilarityModes);
}

/// Everything a snapshot lets a reader see, copied out element by element.
struct DeepCopy {
  std::vector<double> u, sigma, v;
  std::vector<std::vector<double>> norms;
  std::vector<std::string> labels;
  std::vector<std::vector<core::index_t>> docs;
  std::vector<std::vector<double>> rows;

  explicit DeepCopy(const core::IndexSnapshot& snap) {
    const core::SemanticSpace& sp = snap.space();
    u.assign(sp.u.data(), sp.u.data() + sp.num_terms() * sp.k());
    sigma.assign(sp.sigma.begin(), sp.sigma.end());
    const la::DenseMatrix dense = sp.v.to_dense();
    v.assign(dense.data(), dense.data() + sp.num_docs() * sp.k());
    for (std::size_t m = 0; m < core::kNumSimilarityModes; ++m) {
      norms.push_back(
          sp.doc_norms(static_cast<core::SimilarityMode>(m)).to_vector());
    }
    labels = snap.doc_labels().to_vector();
    for (core::index_t c = 0; c < snap.ann()->num_centroids(); ++c) {
      docs.push_back(snap.ann()->cluster_docs(c));
      rows.push_back(snap.ann()->cluster_rows(c));
    }
  }

  friend bool operator==(const DeepCopy&, const DeepCopy&) = default;
};

TEST(Concurrent, FoldInPublishSharesWhatItDidNotChange) {
  synth::CorpusSpec spec;
  spec.topics = 10;
  spec.docs_per_topic = 90;
  spec.seed = 23;
  const auto corpus = synth::generate_corpus(spec);
  ASSERT_GE(corpus.docs.size(), 850u);
  core::ConcurrentOptions opts;
  opts.consolidate_every = 0;  // fold-ins only, until consolidate() below
  opts.ann.exact_cutoff = 64;  // an ANN structure from the base index on
  core::ConcurrentIndexer indexer(base_index(corpus, 300), opts);
  const std::uint64_t base_build = indexer.snapshot()->ann()->build_generation();

  // Grow past one full 512-row block, then take two fold-in publishes.
  for (std::size_t d = 300; d < 540; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();
  const auto a = indexer.snapshot();
  ASSERT_TRUE(indexer.add(corpus.docs[540]).ok());
  indexer.flush();
  const auto b = indexer.snapshot();
  ASSERT_EQ(b->generation(), a->generation() + 1);
  ASSERT_EQ(b->space().num_docs(), 541u);

  // The publish shared U, sigma, the term norms, every block of V, the
  // norms and the labels, and the ANN base; it copied none of them.
  const core::SemanticSpace& sa = a->space();
  const core::SemanticSpace& sb = b->space();
  EXPECT_TRUE(sa.u.same_object(sb.u));
  EXPECT_TRUE(sa.sigma.same_object(sb.sigma));
  EXPECT_EQ(&sa.term_norms(), &sb.term_norms());
  ASSERT_EQ(sa.v.num_blocks(), 2u);
  for (std::size_t blk = 0; blk < sa.v.num_blocks(); ++blk) {
    EXPECT_TRUE(sa.v.shares_block(sb.v, blk)) << "V block " << blk;
    EXPECT_TRUE(a->doc_labels().shares_block(b->doc_labels(), blk))
        << "label block " << blk;
    for (std::size_t m = 0; m < core::kNumSimilarityModes; ++m) {
      const auto mode = static_cast<core::SimilarityMode>(m);
      EXPECT_TRUE(sa.doc_norms(mode).shares_block(sb.doc_norms(mode), blk))
          << "norm block " << blk << " mode " << m;
    }
  }
  ASSERT_NE(a->ann(), nullptr);
  EXPECT_TRUE(a->ann()->shares_base(*b->ann()));

  // Pinned bytes never change: 300 more fold-ins with 3 consolidations (the
  // first past twice the build's size rebuilds the ANN structure), compared
  // against a deep copy while the writer runs and after it is done.
  const DeepCopy pinned(*a);
  for (std::size_t d = 541; d < 841; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
    EXPECT_TRUE(DeepCopy(*a) == pinned) << "doc " << d;
    if (d % 100 == 40) {
      ASSERT_TRUE(indexer.consolidate().ok());
    }
  }
  indexer.flush();
  EXPECT_EQ(indexer.consolidations(), 3u);
  EXPECT_NE(indexer.snapshot()->ann()->build_generation(), base_build);
  EXPECT_EQ(indexer.snapshot()->space().num_docs(), 841u);
  EXPECT_TRUE(DeepCopy(*a) == pinned);
}

TEST(Concurrent, BatchChoppingDoesNotChangeTheIndex) {
  // Replicas see the same document sequence in differently-sized writer
  // batches; folding a batch in runs between consolidation boundaries must
  // leave exactly the state one-document batches leave, bit for bit.
  auto corpus = small_corpus(10);
  auto& fp = util::Failpoints::instance();
  fp.disarm_all();
  core::ConcurrentOptions opts;
  opts.queue_capacity = 64;
  opts.consolidate_every = 12;
  opts.ann.exact_cutoff = 0;  // carry an AnnIndex on this small corpus
  opts.ann.num_centroids = 4;

  opts.max_batch = 1;
  core::ConcurrentIndexer single(base_index(corpus, 30), opts);
  for (std::size_t d = 30; d < 60; ++d) {
    ASSERT_TRUE(single.add(corpus.docs[d]).ok());
  }
  single.flush();

  // Park the batched writer on its first document so the rest queue up:
  // it then pops 16 at a time, and the batch 31..46 crosses the
  // consolidation boundary at 42 documents.
  opts.max_batch = 16;
  opts.failpoint_tag = "chop";
  core::ConcurrentIndexer batched(base_index(corpus, 30), opts);
  fp.arm("concurrent.fold", util::Failpoints::Action::kBlock, "chop");
  ASSERT_TRUE(batched.add(corpus.docs[30]).ok());
  ASSERT_TRUE(fp.wait_for_blocked("concurrent.fold", 1,
                                  std::chrono::seconds(10)));
  for (std::size_t d = 31; d < 60; ++d) {
    ASSERT_TRUE(batched.add(corpus.docs[d]).ok());
  }
  // Release the writer; a kFail arming keeps counting hits and the fold
  // site ignores its result, so the count proves one hit per document.
  fp.arm("concurrent.fold", util::Failpoints::Action::kFail, "chop");
  batched.flush();
  EXPECT_EQ(fp.hits("concurrent.fold"), 30u);
  fp.disarm_all();

  EXPECT_EQ(batched.consolidations(), single.consolidations());
  EXPECT_LT(batched.publishes(), single.publishes());
  const auto a = single.snapshot();
  const auto b = batched.snapshot();
  const la::DenseMatrix va = a->space().v.to_dense();
  const la::DenseMatrix vb = b->space().v.to_dense();
  ASSERT_EQ(va.rows(), 60u);
  ASSERT_EQ(vb.rows(), va.rows());
  ASSERT_EQ(vb.cols(), va.cols());
  EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                        va.rows() * va.cols() * sizeof(double)),
            0);
  EXPECT_EQ(a->doc_labels(), b->doc_labels());

  ASSERT_NE(a->ann(), nullptr);
  ASSERT_NE(b->ann(), nullptr);
  ASSERT_EQ(a->ann()->num_centroids(), b->ann()->num_centroids());
  for (core::index_t c = 0; c < a->ann()->num_centroids(); ++c) {
    const auto da = a->ann()->cluster_docs(c);
    const auto db = b->ann()->cluster_docs(c);
    ASSERT_EQ(da.size(), db.size()) << "centroid " << c;
    EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(da[0])), 0);
    const auto ra = a->ann()->cluster_rows(c);
    const auto rb = b->ann()->cluster_rows(c);
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(ra[0])), 0);
  }
}

TEST(Concurrent, ShutdownDrainsAcceptedDocuments) {
  auto corpus = small_corpus(7);
  auto indexer = std::make_unique<core::ConcurrentIndexer>(
      base_index(corpus, 40));
  for (std::size_t d = 40; d < 48; ++d) {
    ASSERT_TRUE(indexer->add(corpus.docs[d]).ok());
  }
  indexer->shutdown();

  EXPECT_EQ(indexer->ingested(), 8u);
  auto snap = indexer->snapshot();
  EXPECT_EQ(snap->space().num_docs(), 48u);

  // After shutdown every mutation path reports FailedPrecondition.
  EXPECT_EQ(indexer->add(corpus.docs[48]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(indexer->try_add(corpus.docs[48]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(indexer->consolidate().code(), StatusCode::kFailedPrecondition);
  // Reads keep working (snapshots are immutable).
  EXPECT_FALSE(snap->query(corpus.queries[0].text).empty());
}

TEST(Concurrent, BatchedRetrieverPinsSnapshotSpace) {
  auto corpus = small_corpus(8);
  core::ConcurrentIndexer indexer(base_index(corpus, 40));
  auto snap = indexer.snapshot();

  std::vector<la::Vector> weighted;
  for (std::size_t q = 0; q < 4; ++q) {
    weighted.push_back(
        snap->context().weighted_term_vector(corpus.queries[q].text));
  }
  const auto batch =
      core::QueryBatch::from_term_vectors(snap->space(), weighted);
  core::BatchedRetriever pinned(snap->space_ptr());

  // Writer advances; the pinned retriever must keep using the old space.
  for (std::size_t d = 40; d < 46; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();

  const auto ranked = pinned.rank(batch);
  ASSERT_EQ(ranked.size(), 4u);
  for (std::size_t b = 0; b < ranked.size(); ++b) {
    const auto single = snap->retrieve(weighted[b]);
    ASSERT_EQ(ranked[b].size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(ranked[b][i].doc, single[i].doc);
      EXPECT_EQ(ranked[b][i].cosine, single[i].cosine);
      EXPECT_LT(ranked[b][i].doc, snap->space().num_docs());
    }
  }
}

}  // namespace
