// The metasearch gather (docs/GATHER.md): does the cross-shard
// term-statistics exchange plus a score-comparability merge policy close the
// overlap@10 gap the naive raw-cosine gather leaves at high shard counts —
// and does the richer gather stage stay cheap?
//
// One synthetic collection is built monolithically (the ranking ground
// truth) and sharded, and the sharded read path is compared four ways:
//
//   pre-fusion     exchange OFF, raw-cosine merge — today's default gather,
//                  the baseline bench_sharded_retrieval also records;
//   exchange+raw   shards agree on Equation-5 global weights, merge still
//                  compares raw cosines across latent spaces;
//   exchange+znorm per-shard z-score normalization on top of agreeing
//                  weights — removes per-shard scale and offset;
//   exchange+rrf   reciprocal-rank fusion — ignores scores entirely.
//
// The corpus is deliberately hostile to per-shard statistics: a steep-Zipf
// general vocabulary plus document-level pet-word burstiness makes the
// entropy weights genuinely data-dependent, synonym groups with
// consistent-form authors and off-form queries make latent structure do the
// ranking work, and cross-topic leakage blurs topic boundaries. Shards are
// SIZE-SKEWED subcollections (sized_subcollections below) — the paper's
// TREC regime of visibly unequal partitions — so under a fixed per-shard
// factor budget the small shards run nearly full-rank while the large ones
// genuinely compress: each shard's independently-estimated latent space
// gives its candidate list a per-query offset and scale of its own. The
// raw-cosine gather compares those incomparable scales directly; the
// z-score policy standardizes each shard's list against the ScoreMoments of
// its FULL scored sweep (the background distribution the shard actually
// measured), which is exactly the correction this regime needs.
//
// Full-mode gates (ISSUE 10 acceptance):
//   * with the exchange on, the better of z-norm / RRF reaches overlap@10
//     >= 0.95 vs the monolithic index at 8 shards (raw-cosine baseline
//     floors at >= 0.8 at 4 shards, bench_sharded_retrieval);
//   * that winning policy's fused q/s stays >= 0.9x the raw-cosine q/s on
//     the same build (gather overhead <= 10% of scatter q/s);
//   * the default policy stays bit-identical to the pre-gather merge at
//     N = 1 (checked in both modes; any divergence fails the bench).

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lsi/lsi.hpp"
#include "synth/corpus.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

synth::SyntheticCorpus bench_corpus(bool quick) {
  synth::CorpusSpec spec;
  spec.topics = quick ? 20 : 76;
  spec.concepts_per_topic = 8;
  spec.forms_per_concept = 2;        // synonymy: latent structure must work
  spec.consistent_forms_per_doc = true;
  spec.shared_concepts = 24;
  // Topic depth matches the top-10 cut: the set overlap@10 measures is the
  // full relevant set, not an arbitrary fine-ordering boundary inside a
  // larger one — per-shard SVDs retain the topical structure, and the
  // remaining monolithic-vs-sharded gap is the CROSS-SHARD
  // score-comparability error the fusion policies target.
  spec.docs_per_topic = 10;          // 200 docs quick, 760 full
  spec.mean_doc_len = 80.0;
  spec.general_prob = 0.3;
  spec.general_zipf = 1.5;           // a few extremely frequent words
  spec.pet_word_prob = 0.1;          // per-document burstiness
  spec.own_topic_prob = 0.85;        // cross-topic vocabulary leakage
  spec.polysemy_prob = 0.0;
  spec.queries_per_topic = quick ? 2 : 1;
  spec.query_len = 5;
  spec.query_offform_prob = 0.2;     // queries voice non-dominant forms
  spec.seed = 20260808;
  return synth::generate_corpus(spec);
}

// Heterogeneous shards, the paper's actual TREC regime: subcollections of
// visibly different sizes, not equal slices. Shard s's target size tapers
// ~2.8x from the largest to the smallest; every topic's documents spread
// across shards proportionally (lowest fill-fraction first), so each shard
// keeps a slice of every topic's structure. With a fixed per-shard factor
// budget the SMALL shards run nearly full-rank (little latent smoothing,
// wide cosine spread) while the LARGE shards genuinely compress (tight,
// smoothed cosines) — honest per-shard scale divergence that a raw-cosine
// merge mis-orders and the score-comparable policies must undo.
//
// The assignment is realized through the stable hash-label router: each
// document's label gets a deterministic suffix chosen so fnv1a64(label) % N
// lands it on its planned shard (the router hashes labels, so the bench can
// plan the partition while exercising the production routing path).
text::Collection sized_subcollections(const text::Collection& docs,
                                      std::size_t num_shards) {
  std::vector<double> target(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    target[s] = 1.0 + 3.0 * static_cast<double>(num_shards - 1 - s) /
                          static_cast<double>(num_shards - 1);
  }
  std::vector<std::size_t> assigned(num_shards, 0);
  text::Collection out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    std::size_t best = 0;
    double best_fill = static_cast<double>(assigned[0]) / target[0];
    for (std::size_t s = 1; s < num_shards; ++s) {
      const double fill = static_cast<double>(assigned[s]) / target[s];
      if (fill < best_fill) {
        best = s;
        best_fill = fill;
      }
    }
    ++assigned[best];
    // Numeric suffixes vary the hash's low bits; a single repeated character
    // would not (FNV-1a's low bits cycle under one fixed appended byte).
    std::string label = doc.label;
    for (std::size_t salt = 0; util::fnv1a64(label) % num_shards != best;
         ++salt) {
      label = doc.label + "~" + std::to_string(salt);
    }
    out.push_back({std::move(label), doc.body});
  }
  return out;
}

bool bit_identical(const std::vector<core::ScoredDoc>& a,
                   const std::vector<core::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].cosine != b[i].cosine) return false;
  }
  return true;
}

double mean_overlap10(const std::vector<std::vector<core::ScoredDoc>>& ranked,
                      const std::vector<std::set<core::index_t>>& truth,
                      std::size_t top_z) {
  double sum = 0.0;
  for (std::size_t b = 0; b < ranked.size(); ++b) {
    std::size_t hits = 0;
    for (const auto& sd : ranked[b]) hits += truth[b].count(sd.doc);
    sum += static_cast<double>(hits) / static_cast<double>(top_z);
  }
  return sum / static_cast<double>(ranked.size());
}

}  // namespace

int main() {
  bench::banner("cross-shard score comparability (Equation 5 at scale)",
                "Metasearch gather: term-statistics exchange + merge policies "
                "vs the naive raw-cosine gather, overlap@10 and q/s");

  const bool quick = bench::quick_mode();
  bench::StatsSession stats("gather_fusion", /*install=*/false);

  const auto corpus = bench_corpus(quick);
  core::IndexOptions iopts;
  iopts.k = quick ? 32 : 64;  // full per-shard budget (quality regime)

  const std::size_t num_shards = quick ? 4 : 8;
  const std::size_t top_z = 10;
  const std::size_t kBatch = 16;
  const std::size_t total_queries = quick ? 64 : 256;
  const int kReps = quick ? 1 : 3;

  const text::Collection docs = sized_subcollections(corpus.docs, num_shards);

  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);

  stats.param("n_docs", static_cast<double>(corpus.docs.size()));
  stats.param("k", static_cast<double>(iopts.k));
  stats.param("n_shards", static_cast<double>(num_shards));
  stats.param("distinct_queries", static_cast<double>(texts.size()));
  stats.param("quick", quick ? 1.0 : 0.0);

  core::SearchOptions qopts;
  qopts.z = top_z;

  std::vector<std::vector<std::string>> batches;
  for (std::size_t lo = 0; lo < total_queries; lo += kBatch) {
    std::vector<std::string> block;
    for (std::size_t q = lo; q < std::min(total_queries, lo + kBatch); ++q) {
      block.push_back(texts[q % texts.size()]);
    }
    batches.push_back(std::move(block));
  }

  // --- monolithic ground truth ---------------------------------------------
  util::WallTimer timer;
  auto mono_built = core::LsiIndex::try_build(docs, iopts);
  if (!mono_built.ok()) {
    std::cerr << "monolithic build failed: " << mono_built.status().to_string()
              << "\n";
    return 1;
  }
  const auto& mono = *mono_built;
  std::cout << "collection: " << corpus.docs.size() << " docs, "
            << mono.space().num_terms() << " terms, k = " << iopts.k << ", "
            << num_shards << " shards (monolithic build "
            << util::fmt(timer.seconds(), 2) << " s)\n\n";

  std::vector<std::set<core::index_t>> mono_sets;
  for (const auto& t : texts) {
    std::set<core::index_t> s;
    for (const auto& hit : mono.query(t, qopts, nullptr)) {
      s.insert(hit.doc);
    }
    mono_sets.push_back(std::move(s));
  }

  // --- N = 1 default-policy bit parity (both modes) ------------------------
  {
    core::ShardingOptions one;
    one.num_shards = 1;
    one.index = iopts;
    one.split_k_budget = false;
    auto built = core::ShardedIndex::try_build(docs, one);
    if (!built.ok()) {
      std::cerr << "1-shard build failed: " << built.status().to_string()
                << "\n";
      return 1;
    }
    std::vector<la::Vector> ref_vectors;
    for (const auto& t : batches.front()) {
      ref_vectors.push_back(mono.weighted_term_vector(t));
    }
    const auto want = core::BatchedRetriever(mono.space())
                          .rank(core::QueryBatch::from_term_vectors(
                                    mono.space(), ref_vectors),
                                qopts);
    const auto got =
        built->snapshot().try_rank_batch(batches.front(), qopts).value();
    for (std::size_t b = 0; b < want.size(); ++b) {
      if (!bit_identical(got[b], want[b])) {
        std::cerr << "FAIL: N = 1 default-policy ranking for query " << b
                  << " is not bit-identical to BatchedRetriever\n";
        return 1;
      }
    }
    std::cout << "N = 1 default policy is bit-identical to the monolithic "
                 "batched engine (doc order and cosine bits).\n\n";
  }

  // --- sharded builds: exchange off (baseline) and on ----------------------
  core::ShardingOptions sopts;
  sopts.num_shards = num_shards;
  sopts.routing = core::RoutingPolicy::kHashLabel;  // planned partition above
  sopts.index = iopts;
  sopts.split_k_budget = false;  // quality regime: full per-shard budget

  timer.reset();
  auto baseline_built = core::ShardedIndex::try_build(docs, sopts);
  if (!baseline_built.ok()) {
    std::cerr << "baseline build failed: "
              << baseline_built.status().to_string() << "\n";
    return 1;
  }
  const double baseline_build_s = timer.seconds();

  core::ShardingOptions xopts = sopts;
  xopts.share_term_stats = true;
  timer.reset();
  auto exchange_built = core::ShardedIndex::try_build(docs, xopts);
  if (!exchange_built.ok()) {
    std::cerr << "exchange build failed: "
              << exchange_built.status().to_string() << "\n";
    return 1;
  }
  const double exchange_build_s = timer.seconds();
  stats.param("baseline_build_s", baseline_build_s);
  stats.param("exchange_build_s", exchange_build_s);

  const auto baseline_snap = baseline_built->snapshot();
  const auto exchange_snap = exchange_built->snapshot();

  // --- overlap@10 per configuration ----------------------------------------
  struct Config {
    const char* name;
    const core::ShardedSnapshot* snap;
    gather::MergePolicy policy;
  };
  const std::vector<Config> configs = {
      {"pre-fusion (raw, no exchange)", &baseline_snap,
       gather::MergePolicy::kRawCosine},
      {"exchange + raw cosine", &exchange_snap,
       gather::MergePolicy::kRawCosine},
      {"exchange + z-score", &exchange_snap, gather::MergePolicy::kZScore},
      {"exchange + rrf", &exchange_snap, gather::MergePolicy::kRRF},
  };
  const std::vector<std::string> keys = {"prefusion", "exchange_raw",
                                         "exchange_zscore", "exchange_rrf"};

  util::TextTable table({"configuration", "overlap@10", "q/s (b=16)"});
  std::vector<double> overlaps, qps_per_config;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    core::SearchOptions copts = qopts;
    copts.merge = configs[c].policy;
    const auto ranked = configs[c].snap->try_rank_batch(texts, copts).value();
    const double overlap = mean_overlap10(ranked, mono_sets, top_z);

    double stream_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      timer.reset();
      for (const auto& block : batches) {
        const auto r = configs[c].snap->try_rank_batch(block, copts).value();
        if (r.size() != block.size()) {
          std::cerr << "short batch result\n";
          return 1;
        }
      }
      const double s = timer.seconds();
      if (rep == 0 || s < stream_s) stream_s = s;
    }
    const double qps = static_cast<double>(total_queries) / stream_s;

    overlaps.push_back(overlap);
    qps_per_config.push_back(qps);
    table.add_row({configs[c].name, util::fmt(overlap, 3),
                   util::fmt(qps, 0)});
    stats.param("overlap10_" + keys[c], overlap);
    stats.param("qps_" + keys[c], qps);
  }

  std::string caption = "Gather configurations at ";
  caption += std::to_string(num_shards);
  caption += " shards (";
  caption += std::to_string(corpus.docs.size());
  caption += " docs, k = ";
  caption += std::to_string(iopts.k);
  caption += " per shard, top-10)";
  table.print(std::cout, caption);

  // --- the rich gather stages (collapse + facets), instrumented ------------
  // Outside every timed region; populates the gather.* spans/counters of
  // BENCH_gather_fusion.json and sanity-checks the full pipeline end to end.
  {
    obs::ScopedSink scoped(&stats.sink());
    core::SearchOptions gopts = qopts;
    gopts.merge = gather::MergePolicy::kZScore;
    gopts.collapse_cosine = 0.92;
    gopts.facets = 8;
    core::QueryStats qs;
    const auto gathered =
        exchange_snap.try_gather_batch(batches.front(), gopts, &qs).value();
    if (gathered.size() != batches.front().size()) {
      std::cerr << "gather_batch returned a short batch\n";
      return 1;
    }
    std::size_t collapsed = 0, facet_terms = 0;
    for (const auto& g : gathered) {
      for (const auto& h : g.hits) collapsed += h.duplicates.size();
      facet_terms += g.facets.size();
    }
    stats.param("instrumented_collapsed_hits",
                static_cast<double>(collapsed));
    stats.param("instrumented_facet_terms",
                static_cast<double>(facet_terms));
    std::cout << "\nrich gather pass: " << collapsed
              << " near-duplicates collapsed, "
              << facet_terms << " facet terms over "
              << gathered.size() << " queries.\n";
  }

  // --- gates ----------------------------------------------------------------
  const double best_fused = std::max(overlaps[2], overlaps[3]);
  const std::size_t best_idx = overlaps[2] >= overlaps[3] ? 2 : 3;
  const double qps_ratio = qps_per_config[best_idx] / qps_per_config[1];
  stats.param("best_fused_overlap10", best_fused);
  stats.param("fused_qps_ratio", qps_ratio);

  std::cout << "\npre-fusion overlap@10 " << util::fmt(overlaps[0], 3)
            << " -> best fused " << util::fmt(best_fused, 3) << " ("
            << keys[best_idx] << "); fused q/s = "
            << util::fmt(qps_ratio, 2) << "x raw on the same build.\n";

  if (!quick) {
    bool failed = false;
    if (best_fused < 0.95) {
      std::cerr << "\nFAIL: expected overlap@10 >= 0.95 at " << num_shards
                << " shards with exchange + z-norm/RRF, got "
                << util::fmt(best_fused, 3) << "\n";
      failed = true;
    }
    if (qps_ratio < 0.9) {
      std::cerr << "\nFAIL: expected fused q/s >= 0.9x raw-cosine q/s "
                   "(gather overhead <= 10%), got "
                << util::fmt(qps_ratio, 2) << "x\n";
      failed = true;
    }
    if (failed) return 1;
    std::cout << "\nGates: best fused overlap@10 = " << util::fmt(best_fused, 3)
              << " (>= 0.95 required); fused q/s = " << util::fmt(qps_ratio, 2)
              << "x raw (>= 0.9x required).\n";
  }
  return 0;
}
