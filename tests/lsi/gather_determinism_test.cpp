// Gather determinism end-to-end (CTest label "integration"): the ISSUE-10
// contract that cross-shard score ties resolve identically across runs and
// merge policies, including under replicated shards (R > 1). Every policy is
// a deterministic function of the pinned snapshot contents — repeated
// identical queries must produce bit-identical rankings, scores included,
// and the rich gather path must agree with the plain rank path wherever
// their contracts overlap.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lsi/lsi.hpp"
#include "lsi/sharding/sharded_index.hpp"
#include "synth/corpus.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

synth::SyntheticCorpus gather_corpus() {
  // Off-dominant query forms and cross-topic leakage make per-shard spaces
  // genuinely diverge, so the fusion policies have real work to do and any
  // nondeterminism in the gather would surface as a ranking diff.
  synth::CorpusSpec spec;
  spec.topics = 6;
  spec.concepts_per_topic = 5;
  spec.docs_per_topic = 12;
  spec.mean_doc_len = 50.0;
  spec.general_prob = 0.25;
  spec.own_topic_prob = 0.85;
  spec.queries_per_topic = 3;
  spec.query_len = 4;
  spec.query_offform_prob = 0.5;
  spec.seed = 1097;
  return synth::generate_corpus(spec);
}

std::vector<std::string> query_texts(const synth::SyntheticCorpus& corpus) {
  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);
  return texts;
}

ShardingOptions sharded_options(std::size_t shards, std::size_t replicas = 1) {
  ShardingOptions sopts;
  sopts.num_shards = shards;
  sopts.replicas = replicas;
  sopts.index.k = 20;
  sopts.split_k_budget = false;
  return sopts;
}

const std::vector<gather::MergePolicy> kAllPolicies = {
    gather::MergePolicy::kRawCosine, gather::MergePolicy::kZScore,
    gather::MergePolicy::kRRF};

void expect_identical_rankings(
    const std::vector<std::vector<ScoredDoc>>& a,
    const std::vector<std::vector<ScoredDoc>>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << what << " query " << q;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].doc, b[q][i].doc)
          << what << " query " << q << " rank " << i;
      EXPECT_EQ(a[q][i].cosine, b[q][i].cosine)  // exact bits
          << what << " query " << q << " rank " << i;
    }
  }
}

TEST(GatherDeterminism, RepeatedRunsAreBitIdenticalPerPolicy) {
  const auto corpus = gather_corpus();
  const auto texts = query_texts(corpus);
  auto sharded =
      ShardedIndex::try_build(corpus.docs, sharded_options(4)).value();
  const auto snap = sharded.snapshot();

  for (gather::MergePolicy policy : kAllPolicies) {
    SearchOptions opts;
    opts.z = 10;
    opts.merge = policy;
    const auto first = snap.try_rank_batch(texts, opts).value();
    const auto second = snap.try_rank_batch(texts, opts).value();
    expect_identical_rankings(first, second,
                              gather::merge_policy_name(policy).data());
  }
}

TEST(GatherDeterminism, ReplicatedShardsRankIdenticallyAcrossRuns) {
  const auto corpus = gather_corpus();
  const auto texts = query_texts(corpus);
  auto sharded = ShardedIndex::try_build(corpus.docs,
                                         sharded_options(4, /*replicas=*/2))
                     .value();

  for (gather::MergePolicy policy : kAllPolicies) {
    SearchOptions opts;
    opts.z = 10;
    opts.merge = policy;
    // Fresh snapshots per run: round-robin replica selection may pin
    // DIFFERENT replicas each time, and the rankings must not care — every
    // replica of a shard holds the same document sequence.
    const auto first = sharded.snapshot().try_rank_batch(texts, opts).value();
    const auto second = sharded.snapshot().try_rank_batch(texts, opts).value();
    expect_identical_rankings(first, second,
                              gather::merge_policy_name(policy).data());
  }
}

TEST(GatherDeterminism, GatherBatchAgreesWithRankBatchUnderEveryPolicy) {
  // With collapse and facets off, gather_batch is rank_batch plus hit
  // metadata — doc order and fusion scores must match exactly, raw cosines
  // included.
  const auto corpus = gather_corpus();
  const auto texts = query_texts(corpus);
  auto sharded =
      ShardedIndex::try_build(corpus.docs, sharded_options(4)).value();
  const auto snap = sharded.snapshot();

  for (gather::MergePolicy policy : kAllPolicies) {
    SearchOptions opts;
    opts.z = 10;
    opts.merge = policy;
    const auto ranked = snap.try_rank_batch(texts, opts).value();
    const auto gathered = snap.try_gather_batch(texts, opts).value();
    ASSERT_EQ(gathered.size(), ranked.size());
    for (std::size_t q = 0; q < ranked.size(); ++q) {
      ASSERT_EQ(gathered[q].hits.size(), ranked[q].size())
          << "policy " << gather::merge_policy_name(policy) << " query " << q;
      EXPECT_TRUE(gathered[q].facets.empty());
      for (std::size_t i = 0; i < ranked[q].size(); ++i) {
        EXPECT_EQ(gathered[q].hits[i].doc, ranked[q][i].doc)
            << "query " << q << " rank " << i;
        EXPECT_EQ(gathered[q].hits[i].score, ranked[q][i].cosine)
            << "query " << q << " rank " << i;
        EXPECT_TRUE(gathered[q].hits[i].duplicates.empty());
      }
    }
  }
}

TEST(GatherDeterminism, CollapseAndFacetsAreStableAcrossRuns) {
  const auto corpus = gather_corpus();
  const auto texts = query_texts(corpus);
  auto sharded =
      ShardedIndex::try_build(corpus.docs, sharded_options(4)).value();
  const auto snap = sharded.snapshot();

  SearchOptions opts;
  opts.z = 10;
  opts.merge = gather::MergePolicy::kZScore;
  opts.collapse_cosine = 0.9;
  opts.facets = 8;

  const auto first = snap.try_gather_batch(texts, opts).value();
  const auto second = snap.try_gather_batch(texts, opts).value();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t q = 0; q < first.size(); ++q) {
    ASSERT_EQ(first[q].hits.size(), second[q].hits.size()) << "query " << q;
    for (std::size_t i = 0; i < first[q].hits.size(); ++i) {
      EXPECT_EQ(first[q].hits[i].doc, second[q].hits[i].doc);
      EXPECT_EQ(first[q].hits[i].score, second[q].hits[i].score);
      EXPECT_EQ(first[q].hits[i].cosine, second[q].hits[i].cosine);
      EXPECT_EQ(first[q].hits[i].shard, second[q].hits[i].shard);
      EXPECT_EQ(first[q].hits[i].duplicates, second[q].hits[i].duplicates);
    }
    ASSERT_EQ(first[q].facets.size(), second[q].facets.size()) << q;
    for (std::size_t i = 0; i < first[q].facets.size(); ++i) {
      EXPECT_EQ(first[q].facets[i].term, second[q].facets[i].term);
      EXPECT_EQ(first[q].facets[i].weight, second[q].facets[i].weight);
    }
    ASSERT_LE(first[q].facets.size(), opts.facets);
  }
}

TEST(GatherDeterminism, SingleShardPolicyTransformsPreserveRawOrder) {
  // At N = 1 every policy is a monotone transform of one shard's canonical
  // list (z-score is affine with positive scale when sigma > 0; RRF is a
  // strictly decreasing function of rank) — so the DOCUMENT ORDER must be
  // identical to raw cosine even though scores differ.
  const auto corpus = gather_corpus();
  const auto texts = query_texts(corpus);
  auto sharded =
      ShardedIndex::try_build(corpus.docs, sharded_options(1)).value();
  const auto snap = sharded.snapshot();

  SearchOptions raw;
  raw.z = 10;
  const auto want = snap.try_rank_batch(texts, raw).value();

  for (gather::MergePolicy policy :
       {gather::MergePolicy::kZScore, gather::MergePolicy::kRRF}) {
    SearchOptions opts;
    opts.z = 10;
    opts.merge = policy;
    const auto got = snap.try_rank_batch(texts, opts).value();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q) {
      ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
      for (std::size_t i = 0; i < want[q].size(); ++i) {
        EXPECT_EQ(got[q][i].doc, want[q][i].doc)
            << gather::merge_policy_name(policy) << " query " << q << " rank "
            << i;
      }
    }
  }
}

TEST(GatherDeterminism, TermStatsExchangeBuildsAreReproducible) {
  const auto corpus = gather_corpus();
  const auto texts = query_texts(corpus);

  auto opts = sharded_options(4);
  opts.share_term_stats = true;

  auto a = ShardedIndex::try_build(corpus.docs, opts).value();
  auto b = ShardedIndex::try_build(corpus.docs, opts).value();

  const auto info = a.term_stats_info();
  EXPECT_TRUE(info.enabled);
  EXPECT_EQ(info.version, 1u);  // the build-time exchange
  EXPECT_EQ(info.docs, corpus.docs.size());
  EXPECT_GT(info.terms, 0u);

  SearchOptions qopts;
  qopts.z = 10;
  qopts.merge = gather::MergePolicy::kZScore;
  expect_identical_rankings(a.snapshot().try_rank_batch(texts, qopts).value(),
                            b.snapshot().try_rank_batch(texts, qopts).value(),
                            "exchange-on rebuild");

  // Without the exchange the info row reports disabled and refresh is null.
  auto plain =
      ShardedIndex::try_build(corpus.docs, sharded_options(4)).value();
  EXPECT_FALSE(plain.term_stats_info().enabled);
  EXPECT_EQ(plain.refresh_term_stats(), nullptr);

  // Streamed adds republish under the next version.
  ASSERT_TRUE(a.add({"extra", "latent semantic indexing survey"}).ok());
  a.flush();
  const auto refreshed = a.refresh_term_stats();
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->version(), 2u);
  EXPECT_EQ(refreshed->docs(), corpus.docs.size() + 1);
  EXPECT_EQ(a.term_stats_info().version, 2u);
}

}  // namespace
