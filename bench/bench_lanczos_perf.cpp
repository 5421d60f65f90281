// Google-benchmark microbenchmarks of the numerical kernels behind the
// Section 4.2 cost model I*cost(G^T G x) + trp*cost(G x): sparse matvecs,
// dense rotations (the (2k^2-k)(m+n) term), and the full Lanczos driver.
// A custom main additionally runs one instrumented Lanczos solve under an
// observability sink and emits BENCH_lanczos_perf.json with per-stage spans,
// each kernel's share of the solve spent in the periodic convergence checks
// ("lanczos.ritz_check") and in the final bidiagonal SVD
// ("lanczos.factor_svd"), the rate of DGKS second Gram-Schmidt passes, and
// the cost model's prediction next to the solver's measured flops.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "la/kernels.hpp"
#include "la/lanczos.hpp"
#include "lsi/flops.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/update.hpp"
#include "obs/trace.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;

void BM_SparseMatVec(benchmark::State& state) {
  const auto m = static_cast<la::index_t>(state.range(0));
  const auto n = m / 2;
  auto a = synth::random_sparse_matrix(m, n, 0.005, 1);
  la::Vector x(n, 1.0), y(m, 0.0);
  for (auto _ : state) {
    a.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SparseMatVec)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_SparseMatVecTranspose(benchmark::State& state) {
  const auto m = static_cast<la::index_t>(state.range(0));
  const auto n = m / 2;
  auto a = synth::random_sparse_matrix(m, n, 0.005, 2);
  la::Vector x(m, 1.0), y(n, 0.0);
  for (auto _ : state) {
    a.apply_transpose(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SparseMatVecTranspose)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_LanczosSvd(benchmark::State& state) {
  const auto n = static_cast<la::index_t>(state.range(0));
  auto a = synth::random_sparse_matrix(2 * n, n, 0.01, 3);
  la::LanczosOptions opts;
  opts.k = static_cast<la::index_t>(state.range(1));
  for (auto _ : state) {
    auto svd = la::lanczos_svd(a, opts);
    benchmark::DoNotOptimize(svd.s.data());
  }
  // The reorthogonalization inner loops route through the dispatched
  // kernels; record which set this run measured.
  state.SetLabel(std::string("kernel=") + la::kern::active().name);
}
BENCHMARK(BM_LanczosSvd)
    ->Args({500, 10})
    ->Args({1000, 10})
    ->Args({1000, 25})
    ->Args({2000, 25});

void BM_DenseRotation(benchmark::State& state) {
  // The U_k U_F product of Equation (13): m x k times k x k.
  const auto m = static_cast<la::index_t>(state.range(0));
  const la::index_t k = 100;
  la::DenseMatrix u(m, k), f(k, k);
  for (la::index_t j = 0; j < k; ++j) {
    for (la::index_t i = 0; i < m; ++i) u(i, j) = 1.0 / double(i + j + 1);
    for (la::index_t i = 0; i < k; ++i) f(i, j) = 1.0 / double(i + j + 2);
  }
  for (auto _ : state) {
    auto rotated = la::multiply(u, f);
    benchmark::DoNotOptimize(rotated.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m) * k * k);
}
BENCHMARK(BM_DenseRotation)->Arg(2000)->Arg(8000);

void BM_UpdateDocuments(benchmark::State& state) {
  const auto n = static_cast<la::index_t>(state.range(0));
  auto a = synth::random_sparse_matrix(2 * n, n, 0.01, 4);
  auto base = core::try_build_semantic_space(a, 30).value();
  auto d = synth::random_sparse_matrix(2 * n, 8, 0.01, 5);
  for (auto _ : state) {
    auto space = base;
    core::update_documents(space, d);
    benchmark::DoNotOptimize(space.sigma.data());
  }
  state.SetLabel(std::string("kernel=") + la::kern::active().name);
}
BENCHMARK(BM_UpdateDocuments)->Arg(500)->Arg(1000);

/// One instrumented solve per registered kernel at reproduction scale:
/// spans and counters land in the session's sink, and each kernel's
/// LanczosStats::flops lands next to the Section 4.2 model prediction (the
/// reorthogonalization dot/axpy route through the dispatched kernels, so
/// the solve is re-run under every registered Ops table).
void emit_instrumented_run() {
  const bool quick = bench::quick_mode();
  const la::index_t n = quick ? 400 : 2000;
  const la::index_t m = 2 * n;
  const la::index_t k = quick ? 10 : 50;
  auto a = synth::random_sparse_matrix(m, n, 0.01, 7);

  std::vector<std::string> kernels{"portable"};
  if (la::kern::cpu_has_avx2() && la::kern::avx2() != nullptr) {
    kernels.push_back("avx2");
  }

  bench::StatsSession stats("lanczos_perf");
  stats.param("m", static_cast<double>(m));
  stats.param("n", static_cast<double>(n));
  stats.param("k", static_cast<double>(k));
  stats.param("nnz", static_cast<double>(a.nnz()));
  stats.param("quick", quick ? 1.0 : 0.0);
  stats.param("kernels", static_cast<double>(kernels.size()));

  obs::SpanStats& solve_span = stats.sink().span("lanczos");
  obs::SpanStats& check_span = stats.sink().span("lanczos.ritz_check");
  obs::SpanStats& factor_span = stats.sink().span("lanczos.factor_svd");
  for (const auto& name : kernels) {
    la::kern::force(name);
    la::LanczosOptions opts;
    opts.k = k;
    la::LanczosStats lstats;
    const double solve0 = solve_span.total_seconds.load();
    const double check0 = check_span.total_seconds.load();
    const double factor0 = factor_span.total_seconds.load();
    auto svd = la::lanczos_svd(a, opts, &lstats);
    benchmark::DoNotOptimize(svd.s.data());
    const double solve_s = solve_span.total_seconds.load() - solve0;
    const double check_s = check_span.total_seconds.load() - check0;
    const double factor_s = factor_span.total_seconds.load() - factor0;

    // Convergence counters are per-kernel: the reassociating reductions may
    // legally walk a slightly different convergence path.
    stats.param("steps[" + name + "]", static_cast<double>(lstats.steps));
    stats.param("matvecs[" + name + "]",
                static_cast<double>(lstats.matvecs +
                                    lstats.matvecs_transpose));
    stats.param("converged[" + name + "]",
                static_cast<double>(lstats.converged));
    stats.param("max_residual[" + name + "]", lstats.max_residual);
    // Shares of the solve spent on the periodic convergence checks and on
    // the final bidiagonal SVD, and the fraction of Gram-Schmidt calls (one
    // after each matvec) whose DGKS test ran a second pass; reported, not
    // gated.
    stats.param("ritz_check_share[" + name + "]",
                solve_s > 0.0 ? check_s / solve_s : 0.0);
    stats.param("factor_svd_share[" + name + "]",
                solve_s > 0.0 ? factor_s / solve_s : 0.0);
    const auto gs_calls = lstats.matvecs + lstats.matvecs_transpose;
    stats.param("reorth_second_pass_rate[" + name + "]",
                gs_calls > 0 ? static_cast<double>(lstats.reorth_second_passes) /
                                   static_cast<double>(gs_calls)
                             : 0.0);

    core::FlopModelParams fp;
    fp.m = m;
    fp.n = n;
    fp.nnz_a = a.nnz();
    fp.iterations = lstats.steps;
    fp.triplets = k;
    stats.flop_row("lanczos.svd[" + name + "]", core::flops_recompute(fp),
                   lstats.flops);
  }
  la::kern::force("auto");
}

}  // namespace

int main(int argc, char** argv) {
  // In quick mode (CI smoke), trim the registered benchmarks to the
  // smallest shapes unless the caller already passed a filter.
  std::vector<char*> args(argv, argv + argc);
  std::string quick_filter = "--benchmark_filter=/(400|500|2000)(/10)?$";
  bool has_filter = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_filter", 0) == 0) {
      has_filter = true;
    }
  }
  if (bench::quick_mode() && !has_filter) {
    args.push_back(quick_filter.data());
  }
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_instrumented_run();
  return 0;
}
