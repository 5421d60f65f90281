// Concurrent maintenance of the cluster-pruned structure (label "stress",
// run under ThreadSanitizer in CI): the AnnIndex rides the snapshot-publish
// protocol exactly like the prewarmed norm caches — extended in place on
// fold-in publishes and rotated with V when a consolidation rotates it
// (build generation carried over both times), rebuilt from scratch only by
// AnnIndex::rotate's fixed rules (build generation bumps), and always
// immutable once published, so reader threads race writer publishes only
// through the shared_ptr swap.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "synth/corpus.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

synth::SyntheticCorpus stress_corpus(std::uint64_t seed) {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 6;
  spec.docs_per_topic = 30;  // 120 docs
  spec.queries_per_topic = 2;
  spec.seed = seed;
  return synth::generate_corpus(spec);
}

ConcurrentIndexer make_indexer(const synth::SyntheticCorpus& corpus,
                               std::size_t train) {
  text::Collection head(corpus.docs.begin(), corpus.docs.begin() + train);
  IndexOptions iopts;
  iopts.k = 10;
  ConcurrentOptions copts;
  copts.ann.exact_cutoff = 0;  // always build, even on this small corpus
  copts.consolidate_every = 0;  // only on explicit consolidate()
  return ConcurrentIndexer(LsiIndex::try_build(head, iopts).value(), copts);
}

/// Asserts every document of the snapshot sits in exactly one posting list.
void expect_partition(const IndexSnapshot& snap) {
  const std::size_t n = snap.space().num_docs();
  std::vector<int> seen(n, 0);
  std::size_t total = 0;
  for (index_t c = 0; c < snap.ann()->num_centroids(); ++c) {
    for (index_t d : snap.ann()->cluster_docs(c)) {
      ASSERT_LT(d, n);
      ++seen[d];
      ++total;
    }
  }
  EXPECT_EQ(total, n);
  for (std::size_t d = 0; d < n; ++d) EXPECT_EQ(seen[d], 1) << "doc " << d;
}

TEST(AnnConcurrent, FoldPublishExtendsConsolidateRotates) {
  // The documents dealt round-robin over the four topics, so the stream
  // brings no topic the base index lacks (a new topic would trip
  // AnnIndex::rotate's fit rule, tests/lsi/ann_test.cpp).
  auto corpus = stress_corpus(7);
  text::Collection dealt;
  for (std::size_t d = 0; d < 30; ++d) {
    for (std::size_t t = 0; t < 4; ++t) dealt.push_back(corpus.docs[t * 30 + d]);
  }
  corpus.docs = std::move(dealt);
  auto indexer = make_indexer(corpus, 55);

  auto base = indexer.snapshot();
  ASSERT_NE(base->ann(), nullptr);
  EXPECT_EQ(base->ann()->num_docs(), 55u);
  EXPECT_EQ(base->ann()->build_generation(), base->generation());

  // Fold-in publish: the structure covers the new rows but the partition —
  // and with it the build generation — is unchanged.
  for (std::size_t d = 55; d < 65; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();
  auto folded = indexer.snapshot();
  ASSERT_NE(folded->ann(), nullptr);
  EXPECT_EQ(folded->ann()->num_docs(), 65u);
  EXPECT_GT(folded->generation(), base->generation());
  EXPECT_EQ(folded->ann()->build_generation(), base->ann()->build_generation());
  EXPECT_EQ(folded->ann()->num_centroids(), base->ann()->num_centroids());
  expect_partition(*folded);

  // Consolidation rotates V: the partition is rotated with it, so the
  // centroid count and the build generation carry over.
  ASSERT_TRUE(indexer.consolidate().ok());
  auto consolidated = indexer.snapshot();
  ASSERT_NE(consolidated->ann(), nullptr);
  EXPECT_GT(consolidated->generation(), folded->generation());
  EXPECT_EQ(consolidated->ann()->num_docs(), 65u);
  EXPECT_EQ(consolidated->ann()->num_centroids(),
            folded->ann()->num_centroids());
  EXPECT_EQ(consolidated->ann()->build_generation(),
            base->ann()->build_generation());
  expect_partition(*consolidated);

  // Past twice the documents of the build, a consolidation rebuilds from
  // scratch: the build generation bumps to the consolidated snapshot's.
  for (std::size_t d = 65; d < 110; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();
  ASSERT_TRUE(indexer.consolidate().ok());
  auto rebuilt = indexer.snapshot();
  ASSERT_NE(rebuilt->ann(), nullptr);
  EXPECT_EQ(rebuilt->ann()->num_docs(), 110u);
  EXPECT_EQ(rebuilt->ann()->build_generation(), rebuilt->generation());
  EXPECT_GT(rebuilt->ann()->build_generation(),
            consolidated->ann()->build_generation());
  expect_partition(*rebuilt);

  indexer.shutdown();
}

TEST(AnnConcurrent, DisabledOptionsNeverPublishAStructure) {
  const auto corpus = stress_corpus(11);
  text::Collection head(corpus.docs.begin(), corpus.docs.begin() + 60);
  IndexOptions iopts;
  iopts.k = 8;
  ConcurrentOptions copts;
  copts.ann.enabled = false;
  copts.ann.exact_cutoff = 0;
  ConcurrentIndexer indexer(LsiIndex::try_build(head, iopts).value(), copts);
  EXPECT_EQ(indexer.snapshot()->ann(), nullptr);
  ASSERT_TRUE(indexer.add(corpus.docs[60]).ok());
  indexer.flush();
  EXPECT_EQ(indexer.snapshot()->ann(), nullptr);
  indexer.shutdown();
}

TEST(AnnConcurrent, PrunedReadersRaceWriterPublishes) {
  // Readers pin snapshots and run pruned queries (each against its own
  // snapshot's AnnIndex) while one writer folds the tail of the collection
  // in and consolidates periodically. TSan checks the publish handoff; the
  // functional assertion is that every pruned ranking agrees with the exact
  // ranking on the SAME snapshot, whatever generation the reader caught.
  const auto corpus = stress_corpus(13);
  auto indexer = make_indexer(corpus, 60);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  const std::size_t kReaders = 3;

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = r;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = indexer.snapshot();
        const auto& query = corpus.queries[i++ % corpus.queries.size()];

        SearchOptions popts;
        popts.search = SearchMode::kPruned;
        popts.nprobe = snap->ann() != nullptr
                           ? snap->ann()->num_centroids()
                           : std::size_t{1};
        SearchOptions eopts;
        eopts.search = SearchMode::kExact;

        const auto pruned = snap->query(query.text, popts);
        const auto exact = snap->query(query.text, eopts);
        ASSERT_EQ(pruned.size(), exact.size());
        for (std::size_t j = 0; j < pruned.size(); ++j) {
          ASSERT_EQ(pruned[j].doc, exact[j].doc) << "rank " << j;
          ASSERT_EQ(pruned[j].cosine, exact[j].cosine) << "rank " << j;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::size_t d = 60; d < corpus.docs.size(); ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
    if (d % 20 == 0) {
      indexer.flush();
      ASSERT_TRUE(indexer.consolidate().ok());
    }
  }
  indexer.flush();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(checked.load(), 0u);
  const auto final_snap = indexer.snapshot();
  ASSERT_NE(final_snap->ann(), nullptr);
  EXPECT_EQ(final_snap->ann()->num_docs(), corpus.docs.size());
  indexer.shutdown();
}

}  // namespace
