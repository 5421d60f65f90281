// Batched vs single-query retrieval throughput on a MED-scale collection
// (Section 4.4's serving scenario: a stream of queries against a fixed
// semantic space). Both loops enter through the sparse query API
// (QueryBatch::from_sparse, what the daemon's scatter calls) and project
// each query over its few nonzeros; the single-query loop then pays
// per-query allocation and V_k traffic, while the batched engine sweeps each
// V_k panel once for all queries.
//
// The space is drawn randomly at MED dimensions (m = 5831 terms, n = 1033
// documents, k = 100 factors): retrieval throughput depends only on the
// shapes, not on the spectrum, so no SVD is needed to measure it. Every
// batched run is checked for exact agreement with the single-query rankings
// before its timing is reported.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "lsi/batched_retrieval.hpp"
#include "lsi/flops.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

core::SemanticSpace med_scale_space(core::index_t m, core::index_t n,
                                    core::index_t k, util::Rng& rng) {
  la::DenseMatrix u(m, k), v(n, k);
  std::vector<double> sigma(k);
  for (core::index_t j = 0; j < k; ++j) {
    for (auto& x : u.col(j)) x = rng.normal();
    for (auto& x : v.col(j)) x = rng.normal();
    sigma[j] = 50.0 * std::pow(static_cast<double>(j + 1), -0.7);
  }
  core::SemanticSpace space;
  space.u = std::move(u);
  space.v = v;
  space.sigma = std::move(sigma);
  return space;
}

/// Sparse MED-style queries: up to 8 distinct terms, weights in {1, 2, 3}.
std::vector<la::SparseVector> make_queries(core::index_t m, std::size_t count,
                                           util::Rng& rng) {
  std::vector<la::SparseVector> queries(count);
  for (auto& q : queries) {
    for (int t = 0; t < 8; ++t) q.rows.push_back(rng.uniform_index(m));
    std::sort(q.rows.begin(), q.rows.end());
    q.rows.erase(std::unique(q.rows.begin(), q.rows.end()), q.rows.end());
    for (std::size_t p = 0; p < q.rows.size(); ++p) {
      q.values.push_back(1.0 + static_cast<double>(rng.uniform_index(3)));
    }
  }
  return queries;
}

std::uint64_t total_nnz(const std::vector<la::SparseVector>& queries) {
  std::uint64_t nnz = 0;
  for (const auto& q : queries) nnz += q.nnz();
  return nnz;
}

bool same_ranking(const std::vector<core::ScoredDoc>& a,
                  const std::vector<core::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].cosine != b[i].cosine) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::banner("the batched retrieval engine",
                "Queries/sec: single-query loop vs batched multi-query "
                "scoring (MED-scale synthetic collection)");

  // The timed loops below must stay sink-free (the acceptance bar is < 1%
  // throughput change with the sink off), so the session does not install
  // its sink; an instrumented pass at the end populates the spans.
  const bool quick = bench::quick_mode();
  bench::StatsSession stats("batched_retrieval", /*install=*/false);

  const core::index_t m = 5831, n = 1033, k = 100;
  const std::size_t total_queries = quick ? 64 : 512;
  util::Rng rng(42);
  const core::SemanticSpace space = med_scale_space(m, n, k, rng);
  const std::vector<la::SparseVector> queries =
      make_queries(m, total_queries, rng);
  stats.param("m", static_cast<double>(m));
  stats.param("n", static_cast<double>(n));
  stats.param("k", static_cast<double>(k));
  stats.param("queries", static_cast<double>(total_queries));
  stats.param("quick", quick ? 1.0 : 0.0);

  core::SearchOptions opts;
  opts.z = 10;

  const core::BatchedRetriever retriever(space);
  const auto single = [&](const la::SparseVector& q) {
    return retriever.rank(core::QueryBatch::from_sparse(space, {q}), opts)
        .front();
  };
  // Reference rankings (also warms the doc-norm cache for both paths).
  std::vector<std::vector<core::ScoredDoc>> reference(total_queries);
  for (std::size_t q = 0; q < total_queries; ++q) {
    reference[q] = single(queries[q]);
  }

  util::TextTable table({"batch", "single q/s", "batched q/s", "speedup",
                         "model Mflop/query"});
  double speedup_at_32 = 0.0;

  // Shared machines drift: measure the single-query loop and the batched
  // engine back-to-back inside each row and keep the best of a few reps of
  // each, so a load spike cannot skew the ratio in either direction. Quick
  // mode keeps the reps too: its gate reads the same ratio.
  const int kReps = 3;
  util::WallTimer timer;

  std::vector<std::size_t> batch_sizes = {1, 8, 32, 128, 512};
  if (quick) batch_sizes = {1, 8, 32};
  for (const std::size_t batch_size : batch_sizes) {
    double single_sec = 0.0, batched_sec = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      timer.reset();
      for (std::size_t q = 0; q < total_queries; ++q) {
        if (!same_ranking(single(queries[q]), reference[q])) {
          std::cerr << "single-query run diverged from itself?!\n";
          return 1;
        }
      }
      const double s = timer.seconds();
      if (rep == 0 || s < single_sec) single_sec = s;

      timer.reset();
      std::size_t checked = 0;
      for (std::size_t lo = 0; lo < total_queries; lo += batch_size) {
        const std::size_t hi = std::min(total_queries, lo + batch_size);
        const std::vector<la::SparseVector> block(queries.begin() + lo,
                                                  queries.begin() + hi);
        const auto batch = core::QueryBatch::from_sparse(space, block);
        const auto ranked = retriever.rank(batch, opts);
        for (std::size_t b = 0; b < ranked.size(); ++b, ++checked) {
          if (!same_ranking(ranked[b], reference[lo + b])) {
            std::cerr << "parity failure: batch " << batch_size << " query "
                      << (lo + b) << " differs from single-query ranking\n";
            return 1;
          }
        }
      }
      const double bsec = timer.seconds();
      if (rep == 0 || bsec < batched_sec) batched_sec = bsec;
    }
    const double single_qps = static_cast<double>(total_queries) / single_sec;
    const double batched_qps = static_cast<double>(total_queries) / batched_sec;
    const double speedup = batched_qps / single_qps;
    if (batch_size == 32) speedup_at_32 = speedup;

    core::FlopModelParams fp;
    fp.m = m;
    fp.n = n;
    fp.k = k;
    fp.b = batch_size;
    // Every batch size projects the same queries, so the per-query model
    // uses the average nonzeros over all of them.
    fp.nnz_q = total_nnz(queries) * batch_size / total_queries;
    const double mflop_per_query =
        static_cast<double>(core::flops_batch_project(fp) +
                            core::flops_batch_score(fp)) /
        static_cast<double>(batch_size) / 1e6;

    table.add_row({util::fmt_int(static_cast<long long>(batch_size)),
                   util::fmt(single_qps, 0), util::fmt(batched_qps, 0),
                   util::fmt(speedup, 2), util::fmt(mflop_per_query, 2)});
    const std::string suffix = "_b" + std::to_string(batch_size);
    stats.param("qps_single" + suffix, single_qps);
    stats.param("qps_batched" + suffix, batched_qps);
    stats.param("speedup" + suffix, speedup);
  }

  std::string caption = "Batched retrieval throughput (m = 5831, n = 1033, "
                        "k = 100, top-10, ";
  caption += std::to_string(total_queries);
  caption += " queries)";
  table.print(std::cout, caption);
  std::cout << "\nAll batched rankings are identical to the single-query "
               "loop's (exact doc order and scores).\n";

  // One instrumented pass (sink installed, outside every timed region)
  // populates the project/score/select spans and the predicted-vs-measured
  // flops rows of BENCH_batched_retrieval.json.
  {
    obs::ScopedSink scoped(&stats.sink());
    const std::size_t bsz = std::min<std::size_t>(32, total_queries);
    const std::vector<la::SparseVector> block(queries.begin(),
                                              queries.begin() + bsz);
    core::QueryStats qs;
    const auto batch = core::QueryBatch::from_sparse(space, block, &qs);
    const auto ranked = retriever.rank(batch, opts, &qs);
    if (ranked.size() != bsz) return 1;
    core::FlopModelParams fp;
    fp.m = m;
    fp.n = n;
    fp.k = k;
    fp.b = bsz;
    fp.nnz_q = total_nnz(block);
    stats.flop_row("retrieval.batch32",
                   core::flops_batch_project(fp) + core::flops_batch_score(fp),
                   qs.flops);
    stats.param("instrumented_project_s", qs.project_seconds);
    stats.param("instrumented_score_s", qs.score_seconds);
    stats.param("instrumented_select_s", qs.select_seconds);
  }

  if (speedup_at_32 < 2.0) {
    std::cerr << "\nFAIL: expected >= 2x speedup at batch 32, got "
              << speedup_at_32 << "x\n";
    return 1;
  }
  return 0;
}
