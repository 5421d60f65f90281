// Sharded vs monolithic parity (CTest label "integration"):
//
//   * N = 1: the sharded path IS the monolithic path — same projection, same
//     batched ranking, a merge that provably adds no reordering — so results
//     must be *bit-identical* to running BatchedRetriever on the monolithic
//     LsiIndex, cosines included.
//   * N ∈ {1, 2, 4}: each shard estimates its own latent space from its own
//     subcollection, so cosines legitimately differ; on a synthetic corpus
//     whose topics are cleanly separated and whose vocabulary is shared
//     across shards, the *document set* retrieved at top-z must still match
//     the monolithic index (the property the TREC-style decomposition banks
//     on). Everything here is seeded and deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lsi/lsi.hpp"
#include "synth/corpus.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

synth::SyntheticCorpus parity_corpus() {
  // Cleanly separated topics with a shared general vocabulary: no polysemy,
  // queries voicing mostly dominant forms. This is the regime where every
  // shard's independently-estimated space recovers the same topical
  // structure, so sharded and monolithic retrieval agree on the document
  // *set* (the TREC-decomposition assumption the test pins down).
  // Topic size ≈ top_z: a query's ~10 relevant documents outscore the rest
  // by a wide margin in every shard's space, so set agreement measures the
  // decomposition's topical fidelity rather than fine-grained cross-shard
  // score calibration (which sharding deliberately gives up).
  synth::CorpusSpec spec;
  spec.topics = 8;
  spec.concepts_per_topic = 6;
  spec.docs_per_topic = 10;  // 80 docs; every shard still sees each topic
  spec.mean_doc_len = 60.0;
  spec.general_prob = 0.15;
  spec.polysemy_prob = 0.0;
  spec.queries_per_topic = 4;
  spec.query_len = 5;
  spec.query_offform_prob = 0.0;  // dominant forms: retrieval is unambiguous
  spec.seed = 4242;
  return synth::generate_corpus(spec);
}

core::IndexOptions mono_options() {
  core::IndexOptions opts;
  opts.k = 24;
  return opts;
}

TEST(ShardedParity, SingleShardIsBitIdenticalToBatchedRetriever) {
  const auto corpus = parity_corpus();
  const auto iopts = mono_options();

  auto mono = core::LsiIndex::try_build(corpus.docs, iopts).value();

  core::ShardingOptions sopts;
  sopts.num_shards = 1;
  sopts.index = iopts;
  auto sharded = core::ShardedIndex::try_build(corpus.docs, sopts).value();
  ASSERT_EQ(sharded.options().shard_k(0), iopts.k);  // whole budget, 1 shard

  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);

  for (std::size_t top_z : {std::size_t{0}, std::size_t{10}}) {
    core::SearchOptions qopts;
    qopts.z = top_z;

    // Monolithic reference: the batched engine over the full index.
    std::vector<la::Vector> vectors;
    for (const auto& t : texts) {
      vectors.push_back(mono.weighted_term_vector(t));
    }
    const auto want = core::BatchedRetriever(mono.space()).rank(
        core::QueryBatch::from_term_vectors(mono.space(), vectors), qopts);

    const auto got = sharded.snapshot().try_rank_batch(texts, qopts).value();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < want.size(); ++b) {
      ASSERT_EQ(got[b].size(), want[b].size()) << "query " << b;
      for (std::size_t i = 0; i < want[b].size(); ++i) {
        EXPECT_EQ(got[b][i].doc, want[b][i].doc)
            << "query " << b << " rank " << i;
        EXPECT_EQ(got[b][i].cosine, want[b][i].cosine)  // exact bits
            << "query " << b << " rank " << i;
      }
    }
  }
}

TEST(ShardedParity, ShardCountsAgreeOnTheTopZDocumentSet) {
  const auto corpus = parity_corpus();
  const auto iopts = mono_options();
  const std::size_t top_z = 10;

  auto mono = core::LsiIndex::try_build(corpus.docs, iopts).value();

  core::SearchOptions qopts;
  qopts.z = top_z;

  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);

  // Monolithic reference sets.
  std::vector<std::set<index_t>> want_sets;
  for (const auto& t : texts) {
    const auto ranked =
        mono.query(t, qopts, nullptr);
    std::set<index_t> s;
    for (const auto& hit : ranked) s.insert(hit.doc);
    want_sets.push_back(std::move(s));
  }

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    core::ShardingOptions sopts;
    sopts.num_shards = shards;
    sopts.index = iopts;
    // The property under test is retrieval agreement, not the cost budget:
    // give every shard the full factor budget so each subcollection's space
    // is estimated as faithfully as the monolithic one.
    sopts.split_k_budget = false;
    auto sharded = core::ShardedIndex::try_build(corpus.docs, sopts).value();
    const auto snap = sharded.snapshot();

    const auto ranked = snap.try_rank_batch(texts, qopts).value();
    ASSERT_EQ(ranked.size(), texts.size());

    double overlap_sum = 0.0;
    for (std::size_t b = 0; b < texts.size(); ++b) {
      ASSERT_EQ(ranked[b].size(), want_sets[b].size())
          << shards << " shards, query " << b;
      std::size_t hits = 0;
      for (const auto& sd : ranked[b]) {
        hits += want_sets[b].count(sd.doc);
      }
      overlap_sum +=
          static_cast<double>(hits) / static_cast<double>(top_z);
      if (shards == 1) {
        EXPECT_EQ(hits, top_z) << "N=1 must match the monolithic set exactly";
      }
    }
    const double mean_overlap =
        overlap_sum / static_cast<double>(texts.size());
    // N = 1 is exact; N ∈ {2, 4} blend independently-estimated spaces, so
    // hold them to the documented overlap@10 floor instead of equality.
    const double floor = shards == 1 ? 1.0 : 0.8;
    EXPECT_GE(mean_overlap, floor) << shards << " shards";
  }
}

TEST(ShardedParity, TiedScoresOrderIdenticallyAcrossShardCounts) {
  // Four distinct documents, each duplicated in adjacent positions
  // ([A, A, B, B, C, C, D, D]), with mutually disjoint vocabularies.
  // Round-robin then deals every shard the same multiset of *contents*
  // (N = 2: both shards hold {A, B, C, D}; N = 4: {A, C} / {A, C} /
  // {B, D} / {B, D}), so a duplicate pair's two copies land in shards with
  // bit-identical spaces and tie *exactly*. The query matches only A, and
  // every other document scores 0 (its shard either lacks the query terms
  // entirely or scores orthogonal vocabulary), so the canonical order is
  // fully determined: the A pair first, then ids ascending — identical for
  // every shard count.
  text::Collection docs;
  const std::vector<std::string> bodies = {
      "alpha beta gamma",    "alpha beta gamma",
      "delta epsilon zeta",  "delta epsilon zeta",
      "eta theta iota",      "eta theta iota",
      "kappa lambda mu",     "kappa lambda mu",
  };
  for (std::size_t d = 0; d < bodies.size(); ++d) {
    std::string label = "T";
    label += std::to_string(d);
    docs.push_back({label, bodies[d]});
  }

  core::IndexOptions iopts;
  iopts.k = 2;
  core::SearchOptions qopts;

  std::vector<std::vector<index_t>> orders;
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    core::ShardingOptions sopts;
    sopts.num_shards = shards;
    sopts.index = iopts;
    sopts.split_k_budget = false;
    auto sharded = core::ShardedIndex::try_build(docs, sopts).value();
    const auto ranked =
        sharded.snapshot().try_rank_batch({"alpha beta"}, qopts).value()[0];
    ASSERT_EQ(ranked.size(), docs.size()) << shards << " shards";
    // Within every equal-cosine run, global ids must ascend.
    for (std::size_t i = 1; i < ranked.size(); ++i) {
      if (ranked[i].cosine == ranked[i - 1].cosine) {
        EXPECT_LT(ranked[i - 1].doc, ranked[i].doc)
            << shards << " shards, rank " << i;
      }
    }
    std::vector<index_t> order;
    for (const auto& sd : ranked) order.push_back(sd.doc);
    orders.push_back(std::move(order));
  }
  // Round-robin gives every shard the same duplicated subcollection, so the
  // tie *sets* coincide and the deterministic tie-break makes the full
  // orders identical across shard counts.
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(orders[0], orders[2]);
}

}  // namespace
