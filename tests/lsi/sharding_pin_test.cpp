// ShardedIndex::pin_snapshot regression tests: the refcounted read-view
// handle that lets a serving session outlive consolidation (and even the
// index itself) without ever dereferencing a retired snapshot. The headline
// scenario — a session pages a ranking while consolidation retires every
// shard snapshot underneath it — is the bug class this API exists to kill.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "lsi/lsi.hpp"
#include "synth/corpus.hpp"

namespace {

using namespace lsi;

synth::SyntheticCorpus small_corpus(std::uint64_t seed) {
  synth::CorpusSpec spec;
  spec.topics = 3;
  spec.concepts_per_topic = 5;
  spec.docs_per_topic = 16;  // 48 docs
  spec.queries_per_topic = 2;
  spec.seed = seed;
  return synth::generate_corpus(spec);
}

core::ShardedIndex build_index(const text::Collection& docs) {
  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = 8;
  sopts.concurrent.queue_capacity = 64;
  auto built = core::ShardedIndex::try_build(docs, sopts);
  EXPECT_TRUE(built.ok()) << built.status().to_string();
  return std::move(*built);
}

TEST(ShardedPin, CountsHandlesAndSharedCopies) {
  auto corpus = small_corpus(11);
  core::ShardedIndex index = build_index(corpus.docs);
  EXPECT_EQ(index.pinned(), 0u);

  auto pin_a = index.pin_snapshot();
  EXPECT_EQ(index.pinned(), 1u);
  auto pin_b = index.pin_snapshot();
  EXPECT_EQ(index.pinned(), 2u);

  // Copies of one handle share one pin: only the last drop releases it.
  auto pin_a2 = pin_a;
  EXPECT_EQ(index.pinned(), 2u);
  pin_a.reset();
  EXPECT_EQ(index.pinned(), 2u);
  pin_a2.reset();
  EXPECT_EQ(index.pinned(), 1u);
  pin_b.reset();
  EXPECT_EQ(index.pinned(), 0u);
}

TEST(ShardedPin, PagingSurvivesConsolidationUnderneath) {
  auto corpus = small_corpus(22);
  core::ShardedIndex index = build_index(corpus.docs);

  // The "session": pin a view and rank once, to be paged out in slices.
  auto pin = index.pin_snapshot();
  const auto pinned_gens = pin->generations();
  core::SearchOptions qopts;
  qopts.z = 20;
  const std::string query = corpus.queries.front().text;
  const auto full = pin->try_rank_batch({query}, qopts).value()[0];
  ASSERT_GE(full.size(), 8u);

  // Page 1 read before the consolidation.
  std::vector<core::ScoredDoc> page1(full.begin(), full.begin() + 4);

  // Meanwhile: ingest + consolidate retires and republishes every shard
  // snapshot (generations advance).
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(index.add({"late" + std::to_string(i),
                           corpus.docs[i % corpus.docs.size()].body})
                    .ok());
  }
  index.flush();
  ASSERT_TRUE(index.consolidate().ok());
  const auto fresh_gens = index.snapshot().generations();
  ASSERT_NE(fresh_gens, pinned_gens);

  // Page 2 ranks against the SAME pinned view: identical generations,
  // identical ranking — the retired snapshots are still fully alive.
  EXPECT_EQ(pin->generations(), pinned_gens);
  const auto replay = pin->try_rank_batch({query}, qopts).value()[0];
  ASSERT_EQ(replay.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(replay[i].doc, full[i].doc) << i;
    EXPECT_DOUBLE_EQ(replay[i].cosine, full[i].cosine) << i;
  }
  std::vector<core::ScoredDoc> page2(replay.begin() + 4, replay.begin() + 8);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(page2[i].doc, full[i + 4].doc);  // stable cursor continuation
  }

  // The current view does include the late documents (ids past the build).
  qopts.z = 0;
  const auto now = index.snapshot().try_rank_batch({query}, qopts).value()[0];
  EXPECT_GT(now.size(), full.size());
}

TEST(ShardedPin, HandleOutlivesTheIndexItself) {
  auto corpus = small_corpus(33);
  std::shared_ptr<const core::ShardedSnapshot> pin;
  std::vector<core::ScoredDoc> before;
  const std::string query = corpus.queries.front().text;
  core::SearchOptions qopts;
  qopts.z = 5;
  {
    std::optional<core::ShardedIndex> index(build_index(corpus.docs));
    pin = index->pin_snapshot();
    before = pin->try_rank_batch({query}, qopts).value()[0];
    index->shutdown();
    index.reset();  // the index is GONE; the pin must not care
  }
  const auto after = pin->try_rank_batch({query}, qopts).value()[0];
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].doc, before[i].doc);
    EXPECT_DOUBLE_EQ(after[i].cosine, before[i].cosine);
  }
  // Releasing the pin after the index's death is equally well-defined (the
  // refcount block is co-owned by the handle's deleter).
  pin.reset();
}

TEST(ShardedPin, PinnedViewEqualsPlainSnapshot) {
  auto corpus = small_corpus(44);
  core::ShardedIndex index = build_index(corpus.docs);
  const auto pin = index.pin_snapshot();
  const core::ShardedSnapshot plain = index.snapshot();
  EXPECT_EQ(pin->generations(), plain.generations());
  EXPECT_EQ(pin->num_docs(), plain.num_docs());
  core::SearchOptions qopts;
  qopts.z = 10;
  const std::string query = corpus.queries.front().text;
  const auto a = pin->try_rank_batch({query}, qopts).value()[0];
  const auto b = plain.try_rank_batch({query}, qopts).value()[0];
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc);
    EXPECT_DOUBLE_EQ(a[i].cosine, b[i].cosine);
  }
}

}  // namespace
