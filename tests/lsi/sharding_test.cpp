// Sharding unit tests: router policies, option validation, the gather
// merge's deterministic tie-breaking, and the ShardedIndex lifecycle
// (build, ingest, snapshot consistency, per-shard statistics).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lsi/lsi.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;
using core::RoutingPolicy;

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

TEST(ShardRouter, RoundRobinCycles) {
  core::ShardRouter router(RoutingPolicy::kRoundRobin, 3);
  std::vector<std::size_t> got;
  for (int i = 0; i < 7; ++i) got.push_back(router.route("d", 100));
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2, 0}));
  EXPECT_EQ(router.assigned(), (std::vector<std::size_t>{3, 2, 2}));
}

TEST(ShardRouter, SizeBalancedTracksLoad) {
  core::ShardRouter router(RoutingPolicy::kSizeBalanced, 2);
  EXPECT_EQ(router.route("a", 10), 0u);  // both empty: lowest index
  EXPECT_EQ(router.route("b", 1), 1u);   // loads 10 vs 0
  EXPECT_EQ(router.route("c", 1), 1u);   // loads 10 vs 1
  EXPECT_EQ(router.route("d", 1), 1u);   // loads 10 vs 2
  EXPECT_EQ(router.route("e", 1), 1u);   // loads 10 vs 3
  EXPECT_EQ(router.route("f", 9), 1u);   // loads 10 vs 4
  EXPECT_EQ(router.route("g", 1), 0u);   // loads 10 vs 13
  EXPECT_EQ(router.load(), (std::vector<std::size_t>{11, 13}));
}

TEST(ShardRouter, SizeBalancedCyclesOnZeroHints) {
  // Every document counts as at least one load unit, so zero size hints
  // degrade to round-robin-like spreading instead of piling onto shard 0.
  core::ShardRouter router(RoutingPolicy::kSizeBalanced, 3);
  for (int i = 0; i < 9; ++i) router.route("d", 0);
  EXPECT_EQ(router.assigned(), (std::vector<std::size_t>{3, 3, 3}));
}

TEST(ShardRouter, HashLabelIsStableAndLabelKeyed) {
  core::ShardRouter a(RoutingPolicy::kHashLabel, 4);
  core::ShardRouter b(RoutingPolicy::kHashLabel, 4);
  for (const char* label : {"doc-0", "doc-1", "M7", "", "a long label"}) {
    const std::size_t want = util::fnv1a64(label) % 4;
    EXPECT_EQ(a.route(label, 1), want) << label;
    EXPECT_EQ(b.route(label, 999), want) << label;  // size hint ignored
    EXPECT_EQ(a.route(label, 1), want) << label;    // replays identically
  }
}

TEST(Fnv1a64, FixedForAllTime) {
  // Canonical FNV-1a vectors: changing the hash would silently re-partition
  // every hash-routed collection, so these values must never change.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(RoutingPolicyNames, RoundTripAndShortForms) {
  for (RoutingPolicy p : {RoutingPolicy::kRoundRobin,
                          RoutingPolicy::kSizeBalanced,
                          RoutingPolicy::kHashLabel}) {
    const auto parsed =
        core::parse_routing_policy(core::routing_policy_name(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(*core::parse_routing_policy("rr"), RoutingPolicy::kRoundRobin);
  EXPECT_EQ(*core::parse_routing_policy("size"),
            RoutingPolicy::kSizeBalanced);
  EXPECT_EQ(*core::parse_routing_policy("hash"), RoutingPolicy::kHashLabel);
  const auto bad = core::parse_routing_policy("random");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ShardingOptions
// ---------------------------------------------------------------------------

TEST(ShardingOptions, ValidateRejectsBadConfigs) {
  core::ShardingOptions opts;
  opts.num_shards = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  opts = {};
  opts.num_shards = 8;
  opts.index.k = 3;  // cannot split 3 factors across 8 shards
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  opts.split_k_budget = false;  // every shard gets k outright: now fine
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(ShardingOptions, ShardKSplitsTheBudget) {
  core::ShardingOptions opts;
  opts.num_shards = 4;
  opts.index.k = 10;  // 10 = 3 + 3 + 2 + 2
  EXPECT_EQ(opts.shard_k(0), 3);
  EXPECT_EQ(opts.shard_k(1), 3);
  EXPECT_EQ(opts.shard_k(2), 2);
  EXPECT_EQ(opts.shard_k(3), 2);

  index_t total = 0;
  for (std::size_t s = 0; s < opts.num_shards; ++s) total += opts.shard_k(s);
  EXPECT_EQ(total, opts.index.k);  // the equal-total-k-budget contract

  opts.min_shard_k = 4;  // floor wins over the split
  EXPECT_EQ(opts.shard_k(2), 4);

  opts.split_k_budget = false;  // full budget per shard
  EXPECT_EQ(opts.shard_k(0), 10);
  EXPECT_EQ(opts.shard_k(3), 10);
}

// ---------------------------------------------------------------------------
// Gather merge determinism (the shared lsi/ranking.hpp order)
// ---------------------------------------------------------------------------

std::vector<core::ScoredDoc> docs(
    std::initializer_list<std::pair<index_t, double>> list) {
  std::vector<core::ScoredDoc> out;
  for (const auto& [d, c] : list) out.push_back({d, c});
  return out;
}

TEST(MergeRankings, EqualScoresOrderByGlobalIdAcrossAnySplit) {
  // Six documents, all tied at cosine 0.5 except two distinct leaders.
  // However the tied documents are distributed across shards, the merged
  // order must be: leaders by score, then the tie block by ascending
  // global id.
  const std::vector<core::ScoredDoc> want =
      docs({{4, 0.9}, {1, 0.7}, {0, 0.5}, {2, 0.5}, {3, 0.5}, {5, 0.5}});

  // N = 1: everything in one list (already canonical).
  auto one = core::merge_rankings<core::ScoredDoc>({want});
  // N = 2: ties split across two shards, interleaved ids.
  auto two = core::merge_rankings<core::ScoredDoc>(
      {docs({{1, 0.7}, {0, 0.5}, {3, 0.5}}),
       docs({{4, 0.9}, {2, 0.5}, {5, 0.5}})});
  // N = 4: one tied doc per shard, reversed shard order.
  auto four = core::merge_rankings<core::ScoredDoc>(
      {docs({{5, 0.5}}), docs({{4, 0.9}, {3, 0.5}}),
       docs({{1, 0.7}, {2, 0.5}}), docs({{0, 0.5}})});

  for (const auto* got : {&one, &two, &four}) {
    ASSERT_EQ(got->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].doc, want[i].doc) << "rank " << i;
      EXPECT_EQ((*got)[i].cosine, want[i].cosine) << "rank " << i;
    }
  }
}

TEST(MergeRankings, TopZTruncatesAfterTheGlobalSort) {
  auto merged = core::merge_rankings<core::ScoredDoc>(
      {docs({{0, 0.1}, {1, 0.05}}), docs({{2, 0.8}, {3, 0.2}})}, 2);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].doc, 2);
  EXPECT_EQ(merged[1].doc, 3);
}

TEST(MergeRankings, SingleListIsOrderPreserving) {
  // The N = 1 bit-parity guarantee: merging one canonical list adds no
  // reordering, even among exact ties.
  const auto in = docs({{2, 0.5}, {7, 0.5}, {9, 0.5}});
  const auto out = core::merge_rankings<core::ScoredDoc>({in});
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].doc, in[i].doc);
  }
}

// ---------------------------------------------------------------------------
// ShardedIndex lifecycle
// ---------------------------------------------------------------------------

text::Collection tiny_collection() {
  return {
      {"D0", "graph partitioning algorithms for sparse matrix ordering"},
      {"D1", "singular value decomposition of large sparse matrix"},
      {"D2", "query projection in latent semantic indexing"},
      {"D3", "updating the singular value decomposition incrementally"},
      {"D4", "cosine similarity ranking for document retrieval"},
      {"D5", "latent semantic indexing for document retrieval"},
      {"D6", "sparse matrix vector multiplication kernels"},
      {"D7", "relevance feedback improves query ranking"},
  };
}

core::ShardingOptions tiny_options(std::size_t shards) {
  core::ShardingOptions opts;
  opts.num_shards = shards;
  opts.index.k = 4;
  opts.min_shard_k = 2;
  return opts;
}

TEST(ShardedIndex, TryBuildRejectsBadInputs) {
  const auto docs = tiny_collection();

  auto empty = core::ShardedIndex::try_build({}, tiny_options(2));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto too_many = core::ShardedIndex::try_build(
      {docs[0], docs[1]}, tiny_options(3));
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);

  // Hash routing can starve a shard: two copies of one label always land
  // together, leaving the other shard empty — a clear error, not a crash.
  auto opts = tiny_options(2);
  opts.routing = RoutingPolicy::kHashLabel;
  text::Collection same_label = {{"X", "alpha beta"}, {"X", "gamma delta"}};
  auto starved = core::ShardedIndex::try_build(same_label, opts);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(starved.status().message().find("no documents"),
            std::string::npos);
}

TEST(ShardedIndex, BuildPartitionsAndReportsShardInfos) {
  const auto docs = tiny_collection();
  auto built = core::ShardedIndex::try_build(docs, tiny_options(4));
  ASSERT_TRUE(built.ok()) << built.status().to_string();
  auto& index = *built;

  EXPECT_EQ(index.num_shards(), 4u);
  const auto infos = index.shard_infos();
  ASSERT_EQ(infos.size(), 4u);
  std::size_t total_docs = 0;
  for (std::size_t s = 0; s < infos.size(); ++s) {
    EXPECT_EQ(infos[s].shard, s);
    EXPECT_EQ(infos[s].docs, 2u);  // 8 docs round-robined over 4 shards
    EXPECT_EQ(infos[s].k, index.options().shard_k(s));
    EXPECT_EQ(infos[s].generation, 1u);  // base publish
    EXPECT_EQ(infos[s].queued, 0u);
    total_docs += infos[s].docs;
  }
  EXPECT_EQ(total_docs, docs.size());

  const auto snap = index.snapshot();
  EXPECT_EQ(snap.num_shards(), 4u);
  EXPECT_EQ(snap.num_docs(), static_cast<index_t>(docs.size()));
  EXPECT_EQ(snap.generations(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
}

TEST(ShardedIndex, GlobalIdsAreCollectionPositions) {
  const auto docs = tiny_collection();
  auto index = core::ShardedIndex::try_build(docs, tiny_options(2)).value();
  const auto snap = index.snapshot();

  // Every global id in [0, n) appears exactly once across the shard maps,
  // and maps back to the document the shard actually holds.
  std::set<index_t> seen;
  for (std::size_t s = 0; s < snap.num_shards(); ++s) {
    const auto& view = snap.shard(s);
    const auto& labels = view.snapshot->doc_labels();
    ASSERT_EQ(view.global_ids->size(), labels.size());
    for (std::size_t j = 0; j < labels.size(); ++j) {
      const index_t gid = (*view.global_ids)[j];
      EXPECT_TRUE(seen.insert(gid).second) << "duplicate global id " << gid;
      ASSERT_LT(static_cast<std::size_t>(gid), docs.size());
      EXPECT_EQ(labels[j], docs[gid].label);
    }
  }
  EXPECT_EQ(seen.size(), docs.size());
}

TEST(ShardedIndex, QueryResolvesGlobalIdsAndLabels) {
  const auto docs = tiny_collection();
  auto index = core::ShardedIndex::try_build(docs, tiny_options(2)).value();
  const auto snap = index.snapshot();

  core::SearchOptions opts;
  opts.z = 3;
  const auto hits =
      snap.try_gather_batch({"latent semantic indexing retrieval"}, opts)
          .value()[0]
          .hits;
  ASSERT_FALSE(hits.empty());
  ASSERT_LE(hits.size(), 3u);
  for (const auto& hit : hits) {
    ASSERT_LT(static_cast<std::size_t>(hit.doc), docs.size());
    EXPECT_EQ(hit.label, docs[hit.doc].label);  // global id ↔ label agree
  }
  // Both of the collection's LSI documents should surface.
  std::set<std::string> top_labels;
  for (const auto& hit : hits) top_labels.insert(hit.label);
  EXPECT_TRUE(top_labels.count("D2") || top_labels.count("D5"));
}

TEST(ShardedIndex, RankBatchMatchesSingleQueries) {
  const auto docs = tiny_collection();
  auto index = core::ShardedIndex::try_build(docs, tiny_options(2)).value();
  const auto snap = index.snapshot();

  const std::vector<std::string> texts = {
      "sparse matrix kernels", "document retrieval ranking",
      "singular value decomposition"};
  core::SearchOptions opts;
  opts.z = 5;
  core::QueryStats stats;
  const auto batched = snap.try_rank_batch(texts, opts, &stats).value();
  ASSERT_EQ(batched.size(), texts.size());
  EXPECT_EQ(stats.batch_size, static_cast<index_t>(texts.size()));
  EXPECT_GT(stats.docs_scored, 0);
  for (std::size_t b = 0; b < texts.size(); ++b) {
    const auto single = snap.try_rank_batch({texts[b]}, opts).value()[0];
    ASSERT_EQ(batched[b].size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batched[b][i].doc, single[i].doc);
      EXPECT_EQ(batched[b][i].cosine, single[i].cosine);  // exact bits
    }
  }

  // Empty batch: clean empty result, no work.
  EXPECT_TRUE(snap.try_rank_batch({}, opts).value().empty());
}

TEST(ShardedIndex, IngestRoutesAndAssignsFreshGlobalIds) {
  const auto docs = tiny_collection();
  auto index = core::ShardedIndex::try_build(docs, tiny_options(2)).value();

  ASSERT_TRUE(index.add({"D8", "graph ordering via nested dissection"}).ok());
  ASSERT_TRUE(index.add({"D9", "semantic space projection methods"}).ok());
  index.flush();
  EXPECT_EQ(index.ingested(), 2u);

  const auto snap = index.snapshot();
  EXPECT_EQ(snap.num_docs(), static_cast<index_t>(docs.size() + 2));

  // The new documents got the next global ids (8 and 9) in arrival order.
  std::set<index_t> gids;
  for (std::size_t s = 0; s < snap.num_shards(); ++s) {
    const auto& view = snap.shard(s);
    const auto& labels = view.snapshot->doc_labels();
    for (std::size_t j = 0; j < labels.size(); ++j) {
      const index_t gid = (*view.global_ids)[j];
      EXPECT_TRUE(gids.insert(gid).second);
      if (labels[j] == "D8") {
        EXPECT_EQ(gid, 8);
      }
      if (labels[j] == "D9") {
        EXPECT_EQ(gid, 9);
      }
    }
  }
  EXPECT_EQ(gids.size(), docs.size() + 2);

  index.shutdown();
  EXPECT_EQ(index.add({"D10", "too late"}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedIndex, ZeroQueueCapacityStillAdmitsDocuments) {
  // The ingest queue raises a capacity of 0 to 1. The replica set's
  // backpressure probe must read that same capacity, or every replica looks
  // full and each try_add is refused for good.
  auto opts = tiny_options(1);
  opts.concurrent.queue_capacity = 0;
  auto index = core::ShardedIndex::try_build(tiny_collection(), opts).value();
  const Status st = index.try_add({"D8", "graph ordering via nested dissection"});
  ASSERT_TRUE(st.ok()) << st.to_string();
  index.flush();
  EXPECT_EQ(index.ingested(), 1u);
  index.shutdown();
}

TEST(ShardedIndex, ConsolidateReachesEveryShard) {
  const auto docs = tiny_collection();
  auto opts = tiny_options(2);
  opts.concurrent.consolidate_every = 0;  // only explicit consolidation
  auto index = core::ShardedIndex::try_build(docs, opts).value();

  ASSERT_TRUE(index.add({"D8", "latent structure of sparse queries"}).ok());
  ASSERT_TRUE(index.add({"D9", "ranking documents by cosine"}).ok());
  index.flush();
  ASSERT_TRUE(index.consolidate().ok());

  for (const auto& info : index.shard_infos()) {
    EXPECT_EQ(info.unconsolidated, 0u) << "shard " << info.shard;
    EXPECT_GE(info.consolidations, 1u) << "shard " << info.shard;
  }
}

TEST(ShardedIndex, SnapshotIsolatesReadersFromLaterIngest) {
  const auto docs = tiny_collection();
  auto index = core::ShardedIndex::try_build(docs, tiny_options(2)).value();

  const auto before = index.snapshot();
  const auto gens_before = before.generations();
  ASSERT_TRUE(index.add({"D8", "new material arriving mid query"}).ok());
  index.flush();

  // The pinned view never changes: same generations, same doc count.
  EXPECT_EQ(before.generations(), gens_before);
  EXPECT_EQ(before.num_docs(), static_cast<index_t>(docs.size()));
  // A fresh snapshot sees the new document.
  EXPECT_EQ(index.snapshot().num_docs(),
            static_cast<index_t>(docs.size() + 1));
}

// Queries record into the ambient sink and never install one. A query that
// swapped the process-wide sink in and back out raced every other thread's
// ScopedSink: restoring what it had captured could leave a sink installed
// after its owner's scope had closed, dangling once that sink died.
TEST(ShardedSnapshotConcurrent, QueriesNeverReinstallAClosedSink) {
  const auto docs = tiny_collection();
  auto index = core::ShardedIndex::try_build(docs, tiny_options(2)).value();
  const core::ShardedSnapshot snap = index.snapshot();
  obs::Sink sink;
  std::atomic<bool> started{false}, done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(snap.try_rank_batch({"sparse matrix kernels"}).ok());
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (int i = 0; i < 2000; ++i) {
    obs::ScopedSink scoped(&sink);
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(obs::Sink::active(), nullptr);
}

}  // namespace
