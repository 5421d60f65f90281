// Kernel x precision roofline of the Equation-6 scoring sweep — the gate
// behind docs/KERNELS.md. The batched cosine sweep
//     scores(j, b) += w(i, b) * V(j, i)
// is the serving hot path; this bench re-runs it under every registered
// SIMD kernel set (portable, avx2 when the CPU has it) and both document
// stores (fp64 V panels, bf16-compressed panels with fp32 accumulation),
// then reports queries/sec and measured GFLOP/s next to the lsi/flops
// batch-score model for each cell of the sweep.
//
// Full mode (the CI gate on AVX2 hardware):
//   * the dispatched hot path — avx2 kernels over the bf16 store — must
//     reach >= 2x the portable-kernel fp64 baseline's q/s (same corpus,
//     same batches, same thread pool), and
//   * bf16 rankings must overlap fp64 rankings at overlap@10 >= 0.99.
// The same-precision avx2-vs-portable ratios are emitted as params but not
// individually gated: the portable kernels are auto-vectorized by the
// compiler, so on hosts (VMs in particular) where 256-bit execution has no
// throughput advantage over 128-bit they legitimately tie avx2 on the
// elementwise fp64 sweep; the gated pair compares the paths an operator
// actually chooses between. Quick mode (LSI_BENCH_QUICK=1) shrinks the
// corpus and skips both hard gates (smoke + stats emission only, like the
// other CI quick benches).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "la/kernels.hpp"
#include "lsi/batched_retrieval.hpp"
#include "lsi/flops.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

/// V rows = unit(topic center + noise * gauss); sigma descending. Same
/// direct-at-the-reduced-layer synthesis as bench_ann_pruning: kernel
/// throughput depends only on the document-coordinate geometry, not on how
/// an SVD produced it.
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

/// Mean |top10_a intersect top10_b| / 10 across queries.
double overlap_at_10(const std::vector<std::vector<core::ScoredDoc>>& a,
                     const std::vector<std::vector<core::ScoredDoc>>& b) {
  double hit = 0.0, want = 0.0;
  for (std::size_t q = 0; q < a.size(); ++q) {
    std::set<core::index_t> t;
    for (const auto& d : a[q]) t.insert(d.doc);
    for (const auto& d : b[q]) hit += t.count(d.doc);
    want += static_cast<double>(t.size());
  }
  return want > 0.0 ? hit / want : 1.0;
}

struct Cell {
  std::string kernel;
  std::string precision;
  double qps = 0.0;
  double gflops = 0.0;
  std::uint64_t model_flops = 0;
  std::uint64_t measured_flops = 0;
};

}  // namespace

int main() {
  bench::banner("Equation-6 kernel roofline",
                "Queries/sec and GFLOP/s of the batched cosine sweep across "
                "SIMD kernels (portable/avx2) and document-store precisions "
                "(fp64/bf16)");

  const bool quick = bench::quick_mode();
  bench::StatsSession stats("kernel_roofline", /*install=*/false);

  // Full-mode corpus: paper-representative scale (tens of thousands of
  // documents at the canonical k = 100), sized so the bf16 store stays
  // cache-resident while the fp64 panels do not — the regime the compressed
  // store is designed for.
  const core::index_t n = quick ? 20'000 : 50'000;
  const core::index_t k = 100;
  const core::index_t topics = quick ? 64 : 256;
  const std::size_t total_queries = quick ? 64 : 256;
  const std::size_t kBatch = 32;
  const double min_measure_s = quick ? 0.05 : 0.5;

  util::Rng rng(20260808);
  auto space64 = clustered_space(n, k, topics, 0.15, rng);
  auto space16 = std::make_shared<core::SemanticSpace>(*space64);
  space16->set_compress_docs(true);
  space16->prewarm_doc_norms();  // builds the bf16 store + its norm caches
  const auto queries = projected_queries(*space64, total_queries, 0.05, rng);

  const std::size_t threads = util::ThreadPool::global().thread_count();
  std::cout << "corpus: " << n << " documents, k = " << k << ", "
            << total_queries << " queries in batches of " << kBatch << ", "
            << threads << " worker threads\n\n";

  stats.param("n_docs", static_cast<double>(n));
  stats.param("k", static_cast<double>(k));
  stats.param("queries", static_cast<double>(total_queries));
  stats.param("batch", static_cast<double>(kBatch));
  stats.param("threads", static_cast<double>(threads));
  stats.param("quick", quick ? 1.0 : 0.0);

  std::vector<std::string> kernels{"portable"};
  if (la::kern::cpu_has_avx2() && la::kern::avx2() != nullptr) {
    kernels.push_back("avx2");
  }
  stats.param("kernels", static_cast<double>(kernels.size()));

  struct Store {
    const char* precision;
    std::shared_ptr<core::SemanticSpace> space;
  };
  const std::vector<Store> stores{{"fp64", space64}, {"bf16", space16}};

  // One model prediction covers every cell: the flop model counts the
  // mathematics of the sweep, which no kernel or store changes.
  core::FlopModelParams fp;
  fp.n = n;
  fp.k = k;
  std::uint64_t model_per_pass = 0;
  std::vector<std::vector<la::Vector>> blocks;
  for (std::size_t lo = 0; lo < total_queries; lo += kBatch) {
    blocks.emplace_back(
        queries.begin() + lo,
        queries.begin() + std::min(total_queries, lo + kBatch));
    fp.b = blocks.back().size();
    model_per_pass += core::flops_batch_score(fp);
  }

  std::vector<Cell> cells;
  for (const auto& store : stores) {
    const core::BatchedRetriever retriever(*store.space);
    std::vector<core::QueryBatch> batches;
    for (const auto& block : blocks) {
      batches.push_back(core::QueryBatch::from_projected(*store.space, block));
    }
    for (const auto& name : kernels) {
      if (!la::kern::force(name)) {
        std::cerr << "FAIL: cannot force kernel '" << name << "'\n";
        return 1;
      }
      // Warm-up pass: faults the panels in and fills any lazy caches
      // outside the timed region.
      for (const auto& batch : batches) {
        (void)retriever.scores(batch, core::SimilarityMode::kColumnSpace);
      }
      // Best of two timed trials: single-core VM hosts jitter by 10-20%,
      // and the best trial is the least-perturbed estimate of the kernel's
      // actual throughput.
      Cell cell;
      cell.kernel = name;
      cell.precision = store.precision;
      for (int trial = 0; trial < 2; ++trial) {
        core::QueryStats qs;
        std::size_t passes = 0;
        util::WallTimer timer;
        double elapsed = 0.0;
        do {
          for (const auto& batch : batches) {
            (void)retriever.scores(batch, core::SimilarityMode::kColumnSpace,
                                   &qs);
          }
          ++passes;
          elapsed = timer.seconds();
        } while (elapsed < min_measure_s);
        const double qps = static_cast<double>(passes) *
                           static_cast<double>(total_queries) / elapsed;
        if (qps > cell.qps) {
          cell.qps = qps;
          cell.measured_flops = qs.flops;
          cell.model_flops = model_per_pass * passes;
          cell.gflops = static_cast<double>(qs.flops) / elapsed / 1e9;
        }
      }
      cells.push_back(cell);

      const std::string suffix =
          "[" + cell.kernel + "][" + cell.precision + "]";
      stats.param("qps" + suffix, cell.qps);
      stats.param("gflops" + suffix, cell.gflops);
      stats.flop_row("eq6.score" + suffix, cell.model_flops,
                     cell.measured_flops);
    }
  }
  la::kern::force("auto");

  util::TextTable table({"kernel", "store", "q/s", "GFLOP/s", "vs portable"});
  auto find_cell = [&](const std::string& kernel,
                       const std::string& precision) -> const Cell* {
    for (const auto& c : cells) {
      if (c.kernel == kernel && c.precision == precision) return &c;
    }
    return nullptr;
  };
  for (const auto& c : cells) {
    const Cell* base = find_cell("portable", c.precision);
    const double ratio = (base != nullptr && base->qps > 0.0)
                             ? c.qps / base->qps
                             : 1.0;
    table.add_row({c.kernel, c.precision, util::fmt(c.qps, 1),
                   util::fmt(c.gflops, 2), util::fmt(ratio, 2)});
  }
  table.print(std::cout, "Equation-6 sweep, " + std::to_string(n) +
                             " documents, k = " + std::to_string(k));

  // --- rank parity gate: bf16 vs fp64 at top 10 ---------------------------
  core::SearchOptions ropts;
  ropts.search = core::SearchMode::kExact;
  ropts.z = 10;
  std::vector<std::vector<core::ScoredDoc>> ranked64, ranked16;
  {
    const core::BatchedRetriever r64(*space64);
    const core::BatchedRetriever r16(*space16);
    for (const auto& block : blocks) {
      auto b64 = core::QueryBatch::from_projected(*space64, block);
      auto b16 = core::QueryBatch::from_projected(*space16, block);
      for (auto& r : r64.rank(b64, ropts)) ranked64.push_back(std::move(r));
      for (auto& r : r16.rank(b16, ropts)) ranked16.push_back(std::move(r));
    }
  }
  const double overlap = overlap_at_10(ranked64, ranked16);
  stats.param("overlap_at_10_bf16", overlap);
  std::cout << "\nbf16 vs fp64 overlap@10: " << util::fmt(overlap, 4) << "\n";

  // --- full-mode gates ----------------------------------------------------
  const Cell* port64 = find_cell("portable", "fp64");
  const Cell* avx64 = find_cell("avx2", "fp64");
  const Cell* port16 = find_cell("portable", "bf16");
  const Cell* avx16 = find_cell("avx2", "bf16");
  if (avx64 != nullptr && port64 != nullptr && port64->qps > 0.0) {
    stats.param("speedup_avx2_fp64", avx64->qps / port64->qps);
  }
  if (avx16 != nullptr && port16 != nullptr && port16->qps > 0.0) {
    stats.param("speedup_avx2_bf16", avx16->qps / port16->qps);
  }
  // The gated pair: the full dispatched hot path (avx2 + bf16 store)
  // against the portable fp64 baseline every machine can run.
  const double speedup = (avx16 != nullptr && port64 != nullptr &&
                          port64->qps > 0.0)
                             ? avx16->qps / port64->qps
                             : 0.0;
  if (avx16 != nullptr) stats.param("speedup_hot_path", speedup);

  bool ok = true;
  if (!quick) {
    if (overlap < 0.99) {
      std::cerr << "\nFAIL: bf16 overlap@10 " << util::fmt(overlap, 4)
                << " < 0.99\n";
      ok = false;
    }
    if (avx16 == nullptr) {
      // The speedup gate is only meaningful on AVX2 hardware; elsewhere the
      // bench still validates parity and emits the portable roofline.
      std::cout << "\nnote: no avx2 kernel on this machine; "
                   "speedup gate skipped\n";
    } else if (speedup < 2.0) {
      std::cerr << "\nFAIL: the avx2+bf16 hot path is only "
                << util::fmt(speedup, 2)
                << "x the portable fp64 baseline (< 2.0x)\n";
      ok = false;
    }
  }
  stats.param("gate_met", ok ? 1.0 : 0.0);
  if (!ok) return 1;
  if (!quick) {
    std::cout << "\nPASS: "
              << (avx16 != nullptr
                      ? util::fmt(speedup, 2) +
                            "x portable fp64 q/s (avx2 + bf16), "
                      : std::string())
              << "overlap@10 " << util::fmt(overlap, 4) << " >= 0.99\n";
  }
  return 0;
}
