// Sharded scatter-gather serving vs the monolithic batched engine (the
// Section 6 TREC decomposition as a serving architecture; docs/SHARDING.md).
//
// One synthetic collection is built four ways — 1, 2, 4 and 8 shards — and
// compared on build time, batched throughput, single-query tail latency and
// retrieval agreement with the monolithic index:
//
//   * cost rows (split_k_budget = true): the factor budget is split across
//     shards so the total k equals the monolithic budget. This is the
//     "equal total k-budget" contract: shard s scores n/N documents against
//     ~k/N factors, so scatter-gather buys both less arithmetic per query
//     AND parallelism across shards. The >= 1.5x q/s gate at 4 shards runs
//     against these builds.
//   * quality rows (split_k_budget = false): every shard keeps the full
//     factor budget, the configuration the TREC decomposition actually used
//     (each subcollection got its own adequately-sized SVD). overlap@10
//     against the monolithic top-10 document set is measured here — under a
//     split budget a shard's space cannot express what the monolithic one
//     can, which would conflate budget starvation with the decomposition's
//     own rank-blending cost. The >= 0.8 overlap gate runs at 4 shards.
//
// With 1 shard the sharded path must be bit-identical to BatchedRetriever
// over the monolithic index (exact doc order and cosine bits) — checked in
// both quick and full mode; any divergence fails the bench.

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lsi/lsi.hpp"
#include "synth/corpus.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

// Topic size ~ top_z, shared general vocabulary, dominant-form queries: the
// regime (same as the sharded parity tests) where every shard's
// independently-estimated space recovers the same topical structure, so
// overlap@10 measures the decomposition's fidelity rather than fine-grained
// cross-shard score calibration, which sharding deliberately gives up.
// The vocabulary is kept small relative to the document count (one surface
// form per concept, few concepts per topic): per-query cost is projection
// (m·k, which sharding cannot shrink — every shard sees the shared
// vocabulary) plus scoring (n·k, which the split budget divides by N), so
// n >> m is the regime where the equal-budget arithmetic savings are
// measurable even without scatter parallelism (single-core runners).
synth::SyntheticCorpus bench_corpus(bool quick) {
  synth::CorpusSpec spec;
  spec.topics = quick ? 16 : 90;
  spec.concepts_per_topic = 3;
  spec.forms_per_concept = 1;  // no synonymy: this bench measures serving cost
  spec.shared_concepts = 10;
  spec.docs_per_topic = quick ? 8 : 10;  // 128 docs quick, 900 full
  spec.mean_doc_len = 50.0;
  spec.general_prob = 0.15;
  spec.polysemy_prob = 0.0;
  spec.queries_per_topic = quick ? 2 : 1;
  spec.query_len = 3;
  spec.query_offform_prob = 0.0;
  spec.seed = 9381;
  return synth::generate_corpus(spec);
}

double p99_of(std::vector<double> samples_ms) {
  std::sort(samples_ms.begin(), samples_ms.end());
  const std::size_t idx = (samples_ms.size() * 99) / 100;
  return samples_ms[std::min(idx, samples_ms.size() - 1)];
}

bool bit_identical(const std::vector<core::ScoredDoc>& a,
                   const std::vector<core::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].cosine != b[i].cosine) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::banner("the Section 6 subcollection decomposition",
                "Sharded scatter-gather serving: build time, q/s, p99 and "
                "overlap@10 at 1/2/4/8 shards vs the monolithic index");

  // Timed regions stay sink-free (install = false); one instrumented
  // scatter-gather pass at the end populates the sharding.* spans/counters
  // of BENCH_sharded_retrieval.json.
  const bool quick = bench::quick_mode();
  bench::StatsSession stats("sharded_retrieval", /*install=*/false);

  const auto corpus = bench_corpus(quick);
  core::IndexOptions iopts;
  iopts.k = quick ? 24 : 96;  // the TOTAL factor budget for the cost rows

  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);
  const std::size_t total_queries = quick ? 64 : 320;  // stream length
  const std::size_t kBatch = 16;
  const std::size_t kLatencyProbes = quick ? 40 : 200;
  const int kReps = quick ? 1 : 3;
  const std::size_t top_z = 10;

  stats.param("n_docs", static_cast<double>(corpus.docs.size()));
  stats.param("k_total", static_cast<double>(iopts.k));
  stats.param("distinct_queries", static_cast<double>(texts.size()));
  stats.param("stream_queries", static_cast<double>(total_queries));
  stats.param("quick", quick ? 1.0 : 0.0);

  core::SearchOptions qopts;
  qopts.z = top_z;

  // Pre-assembled query batches: every shard count pays identical stream
  // preparation cost, so the timed loops measure only scatter-gather.
  std::vector<std::vector<std::string>> batches;
  for (std::size_t lo = 0; lo < total_queries; lo += kBatch) {
    std::vector<std::string> block;
    for (std::size_t q = lo; q < std::min(total_queries, lo + kBatch); ++q) {
      block.push_back(texts[q % texts.size()]);
    }
    batches.push_back(std::move(block));
  }

  // --- monolithic reference -----------------------------------------------
  util::WallTimer timer;
  auto mono_built = core::LsiIndex::try_build(corpus.docs, iopts);
  if (!mono_built.ok()) {
    std::cerr << "monolithic build failed: " << mono_built.status().to_string()
              << "\n";
    return 1;
  }
  const double mono_build_s = timer.seconds();
  const auto& mono = *mono_built;
  stats.param("mono_build_s", mono_build_s);
  std::cout << "collection: " << corpus.docs.size() << " docs, "
            << mono.space().num_terms() << " terms, k = " << iopts.k
            << " (monolithic build " << util::fmt(mono_build_s, 2) << " s)\n\n";

  // Monolithic top-10 document sets, the overlap@10 reference.
  std::vector<std::set<core::index_t>> mono_sets;
  for (const auto& t : texts) {
    std::set<core::index_t> s;
    for (const auto& hit : mono.query(t, qopts, nullptr)) {
      s.insert(hit.doc);
    }
    mono_sets.push_back(std::move(s));
  }

  // Monolithic batched rankings over the first batch — the N = 1 bit-parity
  // reference (Equation 6 projection + batched scoring, exact bits).
  std::vector<la::Vector> ref_vectors;
  for (const auto& t : batches.front()) {
    ref_vectors.push_back(mono.weighted_term_vector(t));
  }
  const auto ref_rankings =
      core::BatchedRetriever(mono.space())
          .rank(core::QueryBatch::from_term_vectors(mono.space(), ref_vectors),
                qopts);

  // N = 8 runs in BOTH modes: its overlap row is the pre-fusion baseline the
  // gather-fusion bench (bench_gather_fusion) measures its win against.
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};

  util::TextTable table({"shards", "shard k", "build s", "q/s (b=16)",
                         "speedup", "p99 ms", "overlap@10"});
  double qps_at_1 = 0.0, qps_at_4 = 0.0, overlap_at_4 = 0.0;
  double overlap_at_8 = 0.0;
  core::ShardedSnapshot instrumented_snap({});
  bool have_instrumented = false;

  for (const std::size_t shards : shard_counts) {
    // Cost build: equal total k-budget, the configuration the throughput
    // gate compares under.
    core::ShardingOptions eq;
    eq.num_shards = shards;
    eq.index = iopts;  // split_k_budget defaults to true
    timer.reset();
    auto eq_built = core::ShardedIndex::try_build(corpus.docs, eq);
    if (!eq_built.ok()) {
      std::cerr << shards << " shards: build failed: "
                << eq_built.status().to_string() << "\n";
      return 1;
    }
    const double build_s = timer.seconds();
    const auto snap = eq_built->snapshot();

    if (shards == 1) {
      // Bit-parity: with one shard the scatter is one BatchedRetriever pass
      // and the gather a truncation, so cosines must match to the bit.
      const auto got = snap.try_rank_batch(batches.front(), qopts).value();
      if (got.size() != ref_rankings.size()) {
        std::cerr << "FAIL: 1-shard batch size diverged\n";
        return 1;
      }
      for (std::size_t b = 0; b < got.size(); ++b) {
        if (!bit_identical(got[b], ref_rankings[b])) {
          std::cerr << "FAIL: 1-shard ranking for query " << b
                    << " is not bit-identical to BatchedRetriever\n";
          return 1;
        }
      }
      std::cout << "1-shard rankings are bit-identical to the monolithic "
                   "batched engine (doc order and cosine bits).\n\n";
    }

    // Throughput: the whole stream in batches of 16, best of kReps sweeps.
    double stream_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      timer.reset();
      for (const auto& block : batches) {
        const auto ranked = snap.try_rank_batch(block, qopts).value();
        if (ranked.size() != block.size()) {
          std::cerr << "short batch result\n";
          return 1;
        }
      }
      const double s = timer.seconds();
      if (rep == 0 || s < stream_s) stream_s = s;
    }
    const double qps = static_cast<double>(total_queries) / stream_s;

    // Tail latency: single-query scatter-gather probes.
    std::vector<double> lat_ms;
    lat_ms.reserve(kLatencyProbes);
    for (std::size_t i = 0; i < kLatencyProbes; ++i) {
      const auto& t = texts[i % texts.size()];
      timer.reset();
      const auto ranked = snap.try_rank_batch({t}, qopts).value()[0];
      lat_ms.push_back(timer.millis());
      if (ranked.empty()) {
        std::cerr << "empty ranking in latency probe\n";
        return 1;
      }
    }
    const double p99 = p99_of(std::move(lat_ms));

    // Quality build: full per-shard budget (the TREC configuration), the
    // regime the overlap@10 gate runs under. With N = 1 it is the
    // monolithic index again, so overlap is exactly 1.
    core::ShardingOptions fb = eq;
    fb.split_k_budget = false;
    auto fb_built = core::ShardedIndex::try_build(corpus.docs, fb);
    if (!fb_built.ok()) {
      std::cerr << shards << " shards (full budget): build failed: "
                << fb_built.status().to_string() << "\n";
      return 1;
    }
    const auto fb_ranked =
        fb_built->snapshot().try_rank_batch(texts, qopts).value();
    double overlap_sum = 0.0;
    for (std::size_t b = 0; b < texts.size(); ++b) {
      std::size_t hits = 0;
      for (const auto& sd : fb_ranked[b]) hits += mono_sets[b].count(sd.doc);
      overlap_sum += static_cast<double>(hits) / static_cast<double>(top_z);
    }
    const double overlap = overlap_sum / static_cast<double>(texts.size());

    if (shards == 1) qps_at_1 = qps;
    if (shards == 4) {
      qps_at_4 = qps;
      overlap_at_4 = overlap;
      instrumented_snap = snap;
      have_instrumented = true;
    }
    if (shards == 8) overlap_at_8 = overlap;
    const double speedup = qps_at_1 > 0.0 ? qps / qps_at_1 : 0.0;

    table.add_row({util::fmt_int(static_cast<long long>(shards)),
                   util::fmt_int(static_cast<long long>(eq.shard_k(0))),
                   util::fmt(build_s, 2), util::fmt(qps, 0),
                   util::fmt(speedup, 2), util::fmt(p99, 3),
                   util::fmt(overlap, 3)});
    std::string suffix = "_s";
    suffix += std::to_string(shards);
    stats.param("build_s" + suffix, build_s);
    stats.param("qps" + suffix, qps);
    stats.param("speedup" + suffix, speedup);
    stats.param("p99_ms" + suffix, p99);
    stats.param("overlap10" + suffix, overlap);
  }

  // The raw-cosine gather's overlap@10 at 8 shards, under its own name: the
  // PRE-FUSION baseline bench_gather_fusion's exchange + fusion gates are
  // measured against (docs/GATHER.md).
  stats.param("pre_fusion_overlap10_n8", overlap_at_8);

  std::string caption = "Sharded scatter-gather vs monolithic (";
  caption += std::to_string(corpus.docs.size());
  caption += " docs, total k = ";
  caption += std::to_string(iopts.k);
  caption += ", top-10, ";
  caption += std::to_string(total_queries);
  caption += " queries; overlap rows use the full per-shard budget)";
  table.print(std::cout, caption);

  // One instrumented scatter-gather pass (sink installed, outside every
  // timed region) populates the sharding.scatter / sharding.gather spans and
  // the sharding.* counters of the stats document.
  if (have_instrumented) {
    obs::ScopedSink scoped(&stats.sink());
    core::QueryStats qs;
    const auto ranked =
        instrumented_snap.try_rank_batch(batches.front(), qopts, &qs).value();
    if (ranked.size() != batches.front().size()) return 1;
    stats.param("instrumented_project_s", qs.project_seconds);
    stats.param("instrumented_score_s", qs.score_seconds);
    stats.param("instrumented_select_s", qs.select_seconds);
  }

  if (!quick) {
    bool failed = false;
    const double speedup4 = qps_at_4 / qps_at_1;
    if (speedup4 < 1.5) {
      std::cerr << "\nFAIL: expected >= 1.5x q/s at 4 shards vs 1 shard at "
                   "equal total k-budget, got "
                << util::fmt(speedup4, 2) << "x\n";
      failed = true;
    }
    if (overlap_at_4 < 0.8) {
      std::cerr << "\nFAIL: expected overlap@10 >= 0.8 at 4 shards vs the "
                   "monolithic index, got "
                << util::fmt(overlap_at_4, 3) << "\n";
      failed = true;
    }
    if (failed) return 1;
    std::cout << "\nGates: q/s at 4 shards = " << util::fmt(speedup4, 2)
              << "x 1-shard (>= 1.5x required); overlap@10 at 4 shards = "
              << util::fmt(overlap_at_4, 3) << " (>= 0.8 required).\n";
  }
  return 0;
}
