// Cluster-pruned vs exact retrieval at corpus scale (ROADMAP item 3: the
// exact Equation-6 sweep is O(n*k) per query, which caps corpus size; the
// AnnIndex makes candidate generation sub-linear at a measured recall).
//
// The space is synthesized directly at the reduced layer — V rows drawn
// around topic centers on the unit sphere, sigma descending — because
// pruning quality and throughput depend only on the document-coordinate
// geometry, not on how an SVD produced it (no 1M-document decomposition
// needed). Queries enter pre-projected (QueryBatch::from_projected), near a
// topic center each, so every ranked list has real structure to find.
//
// Full mode (the CI gate): n = 1,000,000 documents at k = 32. The bench
// measures the exact sweep, then the pruned path across a sweep of nprobe
// values, and PASSES only if some operating point reaches >= 10x the exact
// throughput at recall@10 >= 0.95. Quick mode (LSI_BENCH_QUICK=1) shrinks
// to 20k documents and skips the hard gate (smoke + stats emission only).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "lsi/ann.hpp"
#include "lsi/batched_retrieval.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

/// V rows = unit(topic center + noise * gauss); centers are unit vectors.
std::shared_ptr<core::SemanticSpace> clustered_space(core::index_t n,
                                                     core::index_t k,
                                                     core::index_t topics,
                                                     double noise,
                                                     util::Rng& rng) {
  std::vector<std::vector<double>> centers(topics, std::vector<double>(k));
  for (auto& c : centers) {
    double norm = 0.0;
    for (auto& x : c) {
      x = rng.normal();
      norm += x * x;
    }
    norm = std::sqrt(norm);
    for (auto& x : c) x /= norm;
  }

  auto space = std::make_shared<core::SemanticSpace>();
  space->u = la::DenseMatrix(k, k);  // unused by pre-projected queries
  la::DenseMatrix v(n, k);
  std::vector<double> sigma(k);
  for (core::index_t i = 0; i < k; ++i) {
    sigma[i] = 50.0 * std::pow(static_cast<double>(i + 1), -0.7);
  }
  for (core::index_t d = 0; d < n; ++d) {
    const auto& c = centers[d % topics];
    double norm = 0.0;
    for (core::index_t i = 0; i < k; ++i) {
      const double x = c[i] + noise * rng.normal();
      v(d, i) = x;
      norm += x * x;
    }
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (core::index_t i = 0; i < k; ++i) v(d, i) /= norm;
    }
  }
  space->v = v;
  space->sigma = std::move(sigma);
  space->prewarm_doc_norms();
  return space;
}

/// Pre-projected queries, each near a random document's topic center.
std::vector<la::Vector> projected_queries(const core::SemanticSpace& space,
                                          std::size_t count, double noise,
                                          util::Rng& rng) {
  const core::index_t k = space.k();
  const core::index_t n = space.num_docs();
  std::vector<la::Vector> queries;
  queries.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    const core::index_t anchor = rng.uniform_index(n);
    la::Vector v(k);
    for (core::index_t i = 0; i < k; ++i) {
      v[i] = space.v(anchor, i) + noise * rng.normal();
    }
    queries.push_back(std::move(v));
  }
  return queries;
}

double recall_at_10(const std::vector<std::vector<core::ScoredDoc>>& truth,
                    const std::vector<std::vector<core::ScoredDoc>>& got) {
  double hit = 0.0, want = 0.0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    std::set<core::index_t> t;
    for (const auto& d : truth[q]) t.insert(d.doc);
    for (const auto& d : got[q]) hit += t.count(d.doc);
    want += static_cast<double>(t.size());
  }
  return want > 0.0 ? hit / want : 1.0;
}

}  // namespace

int main() {
  bench::banner("cluster-pruned candidate generation",
                "Queries/sec and recall@10: exact Equation-6 sweep vs the "
                "AnnIndex pruned path (synthetic clustered corpus)");

  const bool quick = bench::quick_mode();
  bench::StatsSession stats("ann_pruning", /*install=*/false);

  const core::index_t n = quick ? 20'000 : 1'000'000;
  const core::index_t k = 32;
  const core::index_t topics = quick ? 64 : 1000;
  const std::size_t total_queries = quick ? 64 : 256;
  const std::size_t kBatch = 16;

  util::Rng rng(4242);
  util::WallTimer timer;
  auto space = clustered_space(n, k, topics, 0.15, rng);
  const double synth_s = timer.seconds();
  const auto queries = projected_queries(*space, total_queries, 0.05, rng);
  std::cout << "corpus: " << n << " documents, k = " << k << ", " << topics
            << " topics (synthesized in " << util::fmt(synth_s, 1) << " s)\n";

  core::AnnOptions aopts;
  aopts.exact_cutoff = 0;
  timer.reset();
  const auto ann = core::AnnIndex::build(*space, aopts, 1);
  const double build_s = timer.seconds();
  if (ann == nullptr) {
    std::cerr << "FAIL: AnnIndex::build returned no structure\n";
    return 1;
  }
  std::cout << "ann: " << ann->num_centroids() << " centroids, built in "
            << util::fmt(build_s, 1) << " s\n\n";

  stats.param("n_docs", static_cast<double>(n));
  stats.param("k", static_cast<double>(k));
  stats.param("queries", static_cast<double>(total_queries));
  stats.param("centroids", static_cast<double>(ann->num_centroids()));
  stats.param("ann_build_s", build_s);
  stats.param("quick", quick ? 1.0 : 0.0);

  const core::BatchedRetriever retriever(space, ann);
  std::vector<core::QueryBatch> batches;
  for (std::size_t lo = 0; lo < total_queries; lo += kBatch) {
    const std::vector<la::Vector> block(
        queries.begin() + lo,
        queries.begin() + std::min(total_queries, lo + kBatch));
    batches.push_back(core::QueryBatch::from_projected(*space, block));
  }

  // --- exact reference (and its throughput) -------------------------------
  core::SearchOptions eopts;
  eopts.search = core::SearchMode::kExact;
  eopts.z = 10;
  std::vector<std::vector<core::ScoredDoc>> exact;
  timer.reset();
  for (const auto& batch : batches) {
    auto ranked = retriever.rank(batch, eopts);
    for (auto& r : ranked) exact.push_back(std::move(r));
  }
  const double exact_s = timer.seconds();
  const double exact_qps = static_cast<double>(total_queries) / exact_s;
  stats.param("qps_exact", exact_qps);
  std::cout << "exact sweep: " << util::fmt(exact_qps, 1) << " q/s\n\n";

  // --- pruned sweep over nprobe -------------------------------------------
  std::vector<std::size_t> probes = quick
                                        ? std::vector<std::size_t>{2, 4, 8, 16}
                                        : std::vector<std::size_t>{4, 8, 16,
                                                                   32, 64};
  util::TextTable table(
      {"nprobe", "q/s", "speedup", "recall@10", "docs/query"});
  bool gate_met = false;
  double best_gated_speedup = 0.0;
  for (const std::size_t nprobe : probes) {
    core::SearchOptions popts;
    popts.search = core::SearchMode::kPruned;
    popts.nprobe = nprobe;
    popts.z = 10;

    core::QueryStats qs;
    std::vector<std::vector<core::ScoredDoc>> pruned;
    timer.reset();
    for (const auto& batch : batches) {
      auto ranked = retriever.rank(batch, popts, &qs);
      for (auto& r : ranked) pruned.push_back(std::move(r));
    }
    const double pruned_s = timer.seconds();
    const double pruned_qps = static_cast<double>(total_queries) / pruned_s;
    const double speedup = pruned_qps / exact_qps;
    const double recall = recall_at_10(exact, pruned);
    const double docs_per_query =
        static_cast<double>(qs.ann_docs_scanned) /
        static_cast<double>(total_queries);

    table.add_row({util::fmt_int(static_cast<long long>(nprobe)),
                   util::fmt(pruned_qps, 1), util::fmt(speedup, 1),
                   util::fmt(recall, 3), util::fmt(docs_per_query, 0)});
    const std::string suffix = "_p" + std::to_string(nprobe);
    stats.param("qps" + suffix, pruned_qps);
    stats.param("speedup" + suffix, speedup);
    stats.param("recall_at_10" + suffix, recall);

    if (recall >= 0.95 && speedup >= 10.0) {
      gate_met = true;
      best_gated_speedup = std::max(best_gated_speedup, speedup);
    }
  }
  table.print(std::cout, "Pruned path vs exact (" +
                             std::to_string(total_queries) + " queries, "
                             "batch " + std::to_string(kBatch) + ", top-10)");
  stats.param("gate_met", gate_met ? 1.0 : 0.0);

  if (!quick && !gate_met) {
    std::cerr << "\nFAIL: no nprobe reached >= 10x exact throughput at "
                 "recall@10 >= 0.95\n";
    return 1;
  }
  if (gate_met) {
    std::cout << "\nPASS: " << util::fmt(best_gated_speedup, 1)
              << "x exact throughput at recall@10 >= 0.95\n";
  }
  return 0;
}
