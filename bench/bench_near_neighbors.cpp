// Section 5.6 (third open problem): "efficiently comparing queries to
// documents (i.e., finding near neighbors in high-dimension spaces)".
// Cluster-pruned search (the serving path's AnnIndex, lsi/ann.hpp) vs the
// exhaustive Equation-6 scan: recall of the true top-10 and the documents
// actually scored, over a probe sweep.
//
// Fails (exit 1) on deterministic facts only: probing every centroid must
// reproduce the exact top-10 (recall 1.000) while scanning all n documents,
// and recall must never fall as probes grow (the nested cluster selection).
// Wall-clock columns are reported, never gated.

#include <iostream>
#include <set>

#include "bench_common.hpp"
#include "lsi/ann.hpp"
#include "lsi/batched_retrieval.hpp"
#include "synth/sparse_random.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main() {
  using namespace lsi;
  bench::StatsSession session("near_neighbors");
  bench::banner("Section 5.6 (near-neighbor search)",
                "Cluster-pruned cosine search vs exhaustive scan in "
                "k-space.");

  const la::index_t m = 5000, n = 4000, k = 60;
  const std::size_t centroids = 64;
  auto a = synth::random_sparse_matrix(m, n, 0.004, 2024);
  auto space = std::make_shared<core::SemanticSpace>(
      core::try_build_semantic_space(a, k).value());
  space->prewarm_doc_norms();

  core::AnnOptions aopts;
  aopts.num_centroids = centroids;
  aopts.exact_cutoff = 0;  // n is below the serving cutoff; build anyway
  const auto ann = core::AnnIndex::build(*space, aopts, 1);
  if (ann == nullptr) {
    std::cerr << "FAIL: AnnIndex::build returned no structure\n";
    return 1;
  }
  const core::BatchedRetriever retriever(space, ann);

  // 40 random 3-term queries, each its own batch: single-query latency.
  util::Rng rng(5);
  std::vector<core::QueryBatch> queries;
  for (int qn = 0; qn < 40; ++qn) {
    la::Vector raw(m, 0.0);
    for (int t = 0; t < 3; ++t) raw[rng.uniform_index(m)] = 1.0;
    queries.push_back(core::QueryBatch::from_term_vectors(*space, {raw}));
  }

  // Ground truth: the exact sweep over every document.
  core::SearchOptions eopts;
  eopts.search = core::SearchMode::kExact;
  eopts.z = 10;
  std::vector<std::set<la::index_t>> truth;
  util::WallTimer exhaustive_timer;
  for (const auto& q : queries) {
    std::set<la::index_t> top;
    const auto ranked = retriever.rank(q, eopts);
    for (const auto& sd : ranked.front()) top.insert(sd.doc);
    truth.push_back(std::move(top));
  }
  const double exhaustive_ms = exhaustive_timer.millis() / queries.size();

  util::TextTable table({"probes", "recall@10", "docs scored (mean)",
                         "% of collection", "ms/query", "speedup"});
  bool ok = true;
  double prev_recall = 0.0;
  for (std::size_t probes : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    core::SearchOptions popts;
    popts.search = core::SearchMode::kPruned;
    popts.nprobe = probes;
    popts.z = 10;
    double recall = 0.0;
    core::QueryStats stats;
    util::WallTimer timer;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      std::size_t hits = 0;
      const auto ranked = retriever.rank(queries[qi], popts, &stats);
      for (const auto& sd : ranked.front()) hits += truth[qi].count(sd.doc);
      recall += static_cast<double>(hits) / 10.0;
    }
    const double ms = timer.millis() / queries.size();
    recall /= queries.size();
    const double scanned = static_cast<double>(stats.ann_docs_scanned) /
                           static_cast<double>(queries.size());
    table.add_row({std::to_string(probes), util::fmt(recall, 3),
                   util::fmt(scanned, 0),
                   util::fmt_pct(scanned / static_cast<double>(n)),
                   util::fmt(ms, 3),
                   util::fmt(exhaustive_ms / ms, 1) + "x"});
    const std::string suffix = "_p" + std::to_string(probes);
    session.param("recall_at_10" + suffix, recall);
    session.param("docs_scanned" + suffix, scanned);

    if (recall < prev_recall) {
      std::cerr << "FAIL: recall@10 fell from " << prev_recall << " to "
                << recall << " at " << probes << " probes\n";
      ok = false;
    }
    prev_recall = recall;
    if (probes == centroids &&
        (recall != 1.0 || scanned != static_cast<double>(n))) {
      std::cerr << "FAIL: the full probe must match the exact scan "
                   "(recall@10 "
                << recall << ", " << scanned << " of " << n
                << " documents scanned)\n";
      ok = false;
    }
  }
  table.print(std::cout, "4000 documents, k = 60, " +
                             std::to_string(ann->num_centroids()) +
                             " clusters, top-10 queries:");

  std::cout << "\nShape to verify: a handful of probes recovers most of the "
               "true top-10 while\nscoring a small fraction of the "
               "collection — the speedup the paper's open\nproblem asks "
               "for.\n";
  return ok ? 0 : 1;
}
