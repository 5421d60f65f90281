// Sharded concurrency stress test (CTest label "stress"): producer threads
// ingest through the router while reader threads pin ShardedSnapshots and
// run scatter-gather batches. Under ThreadSanitizer this exercises the two
// shared structures the sharded layer adds on top of ConcurrentIndexer —
// the routing state (mutex-serialized global id assignment) and the
// copy-on-write shard-local → global id maps — plus the scatter fan-out
// pool. Assertions are invariant-shaped: global ids unique and in range,
// id maps always covering the pinned snapshots, accepted documents
// conserved across shards.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lsi/lsi.hpp"
#include "synth/corpus.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

constexpr std::size_t kReaders = 4;
constexpr std::size_t kProducers = 3;
constexpr std::size_t kQueriesPerReader = 120;
constexpr std::size_t kBatch = 4;

TEST(ShardedStress, ScatterGatherRacesWithIngest) {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 6;
  spec.docs_per_topic = 40;  // 160 docs
  spec.queries_per_topic = 4;
  spec.seed = 777;
  auto corpus = synth::generate_corpus(spec);
  const std::size_t train = 64;

  core::ShardingOptions sopts;
  sopts.num_shards = 4;
  sopts.index.k = 12;
  sopts.concurrent.queue_capacity = 8;  // small: exercises backpressure
  sopts.concurrent.consolidate_every = 16;
  sopts.concurrent.max_batch = 4;

  text::Collection head(corpus.docs.begin(), corpus.docs.begin() + train);
  auto built = core::ShardedIndex::try_build(head, sopts);
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  auto& index = *built;

  // --- producers: split the tail, mixing blocking add and try_add --------
  std::atomic<std::size_t> accepted{0};
  const std::size_t tail = corpus.docs.size() - train;
  std::vector<std::thread> producers;
  const std::size_t per_producer = tail / kProducers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t begin = train + p * per_producer;
      const std::size_t end =
          (p + 1 == kProducers) ? corpus.docs.size() : begin + per_producer;
      for (std::size_t d = begin; d < end; ++d) {
        if (d % 2 == 0) {
          ASSERT_TRUE(index.add(corpus.docs[d]).ok());
        } else {
          for (;;) {
            const Status s = index.try_add(corpus.docs[d]);
            if (s.ok()) break;
            ASSERT_EQ(s.code(), StatusCode::kResourceExhausted)
                << s.message();
            std::this_thread::yield();
          }
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // --- readers: pin a sharded snapshot, batch-query, check invariants ----
  std::atomic<std::size_t> queries_done{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < kQueriesPerReader; i += kBatch) {
        std::vector<std::string> texts;
        for (std::size_t b = 0; b < kBatch; ++b) {
          const auto& q = corpus.queries[(r * kQueriesPerReader + i + b) %
                                         corpus.queries.size()];
          texts.push_back(q.text);
        }
        const auto snap = index.snapshot();

        // Id maps always cover the pinned shard snapshots (never shorter),
        // and the pinned doc count never shrinks below the base build.
        index_t snap_docs = 0;
        for (std::size_t s = 0; s < snap.num_shards(); ++s) {
          const auto& view = snap.shard(s);
          ASSERT_GE(view.global_ids->size(),
                    view.snapshot->doc_labels().size());
          snap_docs += view.snapshot->space().num_docs();
        }
        ASSERT_GE(static_cast<std::size_t>(snap_docs), train);

        core::SearchOptions qopts;
        qopts.z = 10;
        const auto ranked = snap.try_rank_batch(texts, qopts).value();
        ASSERT_EQ(ranked.size(), texts.size());
        for (const auto& lane : ranked) {
          ASSERT_LE(lane.size(), qopts.z);
          std::set<index_t> ids;
          for (const auto& sd : lane) {
            // Global ids are unique within a ranking and within the id
            // space handed out so far (base + everything ever accepted).
            ASSERT_TRUE(ids.insert(sd.doc).second);
            ASSERT_LT(static_cast<std::size_t>(sd.doc), corpus.docs.size());
          }
          for (std::size_t j = 1; j < lane.size(); ++j) {
            ASSERT_TRUE(core::ranks_before(lane[j - 1], lane[j]));
          }
        }
        queries_done.fetch_add(texts.size(), std::memory_order_relaxed);
      }
    });
  }

  // --- consolidation driver: all-shard SVD updates mid-stream ------------
  std::thread driver([&] {
    for (int i = 0; i < 2; ++i) {
      std::this_thread::yield();
      ASSERT_TRUE(index.consolidate().ok());
    }
  });

  for (auto& t : producers) t.join();
  driver.join();
  for (auto& t : readers) t.join();
  index.flush();

  EXPECT_GE(queries_done.load() + accepted.load(), 500u);
  EXPECT_EQ(index.ingested(), tail);

  // Conservation: after the flush, every document is in exactly one shard
  // and global ids form exactly [0, n). Base documents keep their build
  // positions as ids; tail ids are handed out in (nondeterministic) arrival
  // order, so for those only label conservation is checked.
  const auto snap = index.snapshot();
  ASSERT_EQ(snap.num_docs(), static_cast<index_t>(corpus.docs.size()));
  std::set<index_t> gids;
  std::set<std::string> seen_labels;
  for (std::size_t s = 0; s < snap.num_shards(); ++s) {
    const auto& view = snap.shard(s);
    const auto& labels = view.snapshot->doc_labels();
    ASSERT_EQ(view.global_ids->size(), labels.size());
    for (std::size_t j = 0; j < labels.size(); ++j) {
      const index_t gid = (*view.global_ids)[j];
      ASSERT_TRUE(gids.insert(gid).second) << "duplicate global id " << gid;
      ASSERT_LT(static_cast<std::size_t>(gid), corpus.docs.size());
      if (static_cast<std::size_t>(gid) < train) {
        EXPECT_EQ(labels[j], corpus.docs[gid].label);
      }
      EXPECT_TRUE(seen_labels.insert(labels[j]).second)
          << "duplicate label " << labels[j];
    }
  }
  EXPECT_EQ(gids.size(), corpus.docs.size());
  for (const auto& doc : corpus.docs) {
    EXPECT_EQ(seen_labels.count(doc.label), 1u) << "lost " << doc.label;
  }

  // Clean shutdown while a snapshot is still pinned.
  index.shutdown();
  EXPECT_EQ(snap.num_docs(), static_cast<index_t>(corpus.docs.size()));
}

}  // namespace
