// Solver comparison (SVDPACK had several Lanczos/subspace methods; Berry's
// survey [2] covers the trade-offs): our GKL Lanczos vs block subspace
// iteration vs the dense Golub-Kahan SVD, on agreement and wall time.

#include <cmath>
#include <iostream>
#include <tuple>

#include "bench_common.hpp"
#include "la/golub_kahan_svd.hpp"
#include "la/lanczos.hpp"
#include "la/subspace.hpp"
#include "synth/sparse_random.hpp"
#include "util/timer.hpp"

int main() {
  using namespace lsi;
  bench::StatsSession session("svd_solvers");
  bench::banner("SVD solver comparison (substrate ablation)",
                "GKL Lanczos (full reorthogonalization) vs block subspace "
                "iteration vs the dense\nGolub-Kahan SVD.");

  util::TextTable table({"m x n", "k", "solver", "time (ms)",
                         "max sigma dev vs dense", "work"});
  for (auto [m, n, k] : {std::tuple{400, 250, 10}, std::tuple{1200, 700, 25},
                         std::tuple{2400, 1500, 25}}) {
    auto a = synth::random_sparse_matrix(m, n, 0.02, 31337);
    const std::string shape =
        std::to_string(m) + " x " + std::to_string(n);

    util::WallTimer td;
    auto ref = la::golub_kahan_svd(a.to_dense());
    const double ref_ms = td.millis();
    table.add_row({shape, std::to_string(k), "dense Golub-Kahan",
                   util::fmt(ref_ms, 1), "0 (reference)",
                   "full spectrum"});

    la::LanczosOptions lopts;
    lopts.k = k;
    la::LanczosStats lstats;
    util::WallTimer tl;
    auto lz = la::lanczos_svd(a, lopts, &lstats);
    const double lz_ms = tl.millis();
    double lz_dev = 0.0;
    for (la::index_t i = 0; i < static_cast<la::index_t>(k); ++i) {
      lz_dev = std::max(lz_dev, std::fabs(lz.s[i] - ref.s[i]) / ref.s[0]);
    }
    table.add_row({shape, std::to_string(k), "GKL Lanczos",
                   util::fmt(lz_ms, 1), util::fmt(lz_dev, 10),
                   std::to_string(lstats.steps) + " steps"});

    la::SubspaceOptions sopts;
    sopts.k = k;
    la::SubspaceStats sstats;
    util::WallTimer ts;
    auto ss = la::subspace_svd(a, sopts, &sstats);
    const double ss_ms = ts.millis();
    double ss_dev = 0.0;
    for (la::index_t i = 0; i < static_cast<la::index_t>(k); ++i) {
      ss_dev = std::max(ss_dev, std::fabs(ss.s[i] - ref.s[i]) / ref.s[0]);
    }
    table.add_row({shape, std::to_string(k), "subspace iteration",
                   util::fmt(ss_ms, 1), util::fmt(ss_dev, 10),
                   std::to_string(sstats.iterations) + " block iters"});
  }
  table.print(std::cout, "Random sparse matrices, density 2%:");

  std::cout << "\nShape to verify: both iterative solvers agree with the "
               "dense reference to\n~1e-9 relative; Lanczos converges in "
               "far fewer operator applications; the dense\nSVD is "
               "uncompetitive beyond toy sizes (hence the paper computes "
               "truncated\nSVDs with Lanczos-type methods).\n";
  return 0;
}
