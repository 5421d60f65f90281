// Lanczos truncated-SVD tests: agreement with the dense Jacobi reference,
// convergence reporting, determinism, degenerate inputs, accuracy at machine
// precision (orthogonality and residuals, with and without the DGKS second
// Gram-Schmidt pass), and the O(j^2) convergence check against a dense
// Jacobi reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/jacobi_svd.hpp"
#include "la/lanczos.hpp"
#include "la/ritz_check.hpp"
#include "obs/trace.hpp"
#include "synth/corpus.hpp"
#include "text/parser.hpp"
#include "util/rng.hpp"
#include "weighting/weighting.hpp"

namespace {

using namespace lsi::la;

DenseMatrix random_matrix(index_t m, index_t n, std::uint64_t seed) {
  lsi::util::Rng rng(seed);
  DenseMatrix a(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) a(i, j) = rng.normal();
  }
  return a;
}

CscMatrix random_sparse(index_t m, index_t n, double density,
                        std::uint64_t seed) {
  lsi::util::Rng rng(seed);
  CooBuilder b(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      if (rng.bernoulli(density)) b.add(i, j, rng.normal());
    }
  }
  return b.to_csc();
}

/// |cos angle| between corresponding columns must be ~1 (subspace match up
/// to sign, which normalize_signs pins, so we check actual equality).
void expect_triplets_match(const SvdResult& got, const SvdResult& want,
                           index_t k, double tol) {
  ASSERT_GE(got.rank(), k);
  ASSERT_GE(want.rank(), k);
  for (index_t i = 0; i < k; ++i) {
    EXPECT_NEAR(got.s[i], want.s[i], tol * std::max(1.0, want.s[0]))
        << "sigma " << i;
    // Compare singular subspaces via |u_got . u_want| to stay robust if two
    // singular values are nearly equal.
    const double uangle = std::fabs(dot(got.u.col(i), want.u.col(i)));
    const double vangle = std::fabs(dot(got.v.col(i), want.v.col(i)));
    if (i + 1 < want.rank() &&
        want.s[i] - want.s[i + 1] > 1e-3 * want.s[0]) {
      EXPECT_GT(uangle, 1.0 - 1e-6) << "u " << i;
      EXPECT_GT(vangle, 1.0 - 1e-6) << "v " << i;
    }
  }
}

TEST(Lanczos, MatchesJacobiOnDenseOperator) {
  auto a = random_matrix(60, 40, 11);
  auto want = jacobi_svd(a);
  DenseOperator op(a);
  LanczosOptions opts;
  opts.k = 10;
  LanczosStats stats;
  auto got = lanczos_svd(op, opts, &stats);
  ASSERT_EQ(got.rank(), 10u);
  expect_triplets_match(got, want, 10, 1e-8);
  EXPECT_GE(stats.converged, 10u);
  EXPECT_GT(stats.matvecs, 0u);
}

TEST(Lanczos, MatchesJacobiOnSparse) {
  auto s = random_sparse(120, 80, 0.08, 13);
  auto want = jacobi_svd(s.to_dense());
  LanczosOptions opts;
  opts.k = 8;
  auto got = lanczos_svd(s, opts);
  expect_triplets_match(got, want, 8, 1e-8);
}

TEST(Lanczos, FullRankRecoversEverything) {
  auto a = random_matrix(15, 10, 17);
  auto want = jacobi_svd(a);
  DenseOperator op(a);
  LanczosOptions opts;
  opts.k = 10;
  opts.max_dim = 10;
  auto got = lanczos_svd(op, opts);
  expect_triplets_match(got, want, 10, 1e-8);
}

TEST(Lanczos, FactorsOrthonormal) {
  auto s = random_sparse(90, 70, 0.1, 19);
  LanczosOptions opts;
  opts.k = 12;
  auto got = lanczos_svd(s, opts);
  EXPECT_LT(orthonormality_error(got.u), 1e-9);
  EXPECT_LT(orthonormality_error(got.v), 1e-9);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  auto s = random_sparse(50, 40, 0.15, 23);
  LanczosOptions opts;
  opts.k = 5;
  auto a = lanczos_svd(s, opts);
  auto b = lanczos_svd(s, opts);
  EXPECT_EQ(a.s, b.s);
  EXPECT_NEAR(max_abs_diff(a.u, b.u), 0.0, 0.0);
}

TEST(Lanczos, ZeroMatrix) {
  CooBuilder b(10, 8);
  auto s = b.to_csc();
  LanczosOptions opts;
  opts.k = 3;
  auto got = lanczos_svd(s, opts);
  for (double sigma : got.s) EXPECT_NEAR(sigma, 0.0, 1e-12);
}

TEST(Lanczos, RankOneMatrix) {
  // A = u v^T with ||u||=2, ||v||=3 -> sigma_1 = 6, everything else 0.
  CooBuilder b(40, 30);
  for (index_t i = 0; i < 40; ++i) {
    for (index_t j = 0; j < 30; ++j) {
      const double u = (i == 0) ? 2.0 : 0.0;
      const double v = (j == 0) ? 3.0 : 0.0;
      if (u * v != 0.0) b.add(i, j, u * v);
    }
  }
  LanczosOptions opts;
  opts.k = 3;
  auto got = lanczos_svd(b.to_csc(), opts);
  EXPECT_NEAR(got.s[0], 6.0, 1e-10);
  if (got.rank() > 1) {
    EXPECT_NEAR(got.s[1], 0.0, 1e-8);
  }
}

TEST(Lanczos, RepeatedSingularValues) {
  // Identity-like: all singular values equal; subspace is degenerate but
  // the values must still be correct.
  CooBuilder b(20, 20);
  for (index_t i = 0; i < 20; ++i) b.add(i, i, 2.5);
  LanczosOptions opts;
  opts.k = 6;
  auto got = lanczos_svd(b.to_csc(), opts);
  for (index_t i = 0; i < 6; ++i) EXPECT_NEAR(got.s[i], 2.5, 1e-9);
}

TEST(Lanczos, WideMatrix) {
  auto s = random_sparse(30, 100, 0.1, 29);
  auto want = jacobi_svd(s.to_dense());
  LanczosOptions opts;
  opts.k = 6;
  auto got = lanczos_svd(s, opts);
  expect_triplets_match(got, want, 6, 1e-8);
}

TEST(Lanczos, StatsReportIterationCount) {
  auto s = random_sparse(80, 60, 0.1, 31);
  LanczosOptions opts;
  opts.k = 4;
  LanczosStats stats;
  (void)lanczos_svd(s, opts, &stats);
  EXPECT_GT(stats.steps, 4u);
  EXPECT_EQ(stats.matvecs, stats.steps);
  EXPECT_LE(stats.max_residual, 1.0);
}

TEST(Lanczos, KLargerThanRankIsClamped) {
  auto s = random_sparse(10, 6, 0.5, 37);
  LanczosOptions opts;
  opts.k = 50;
  auto got = lanczos_svd(s, opts);
  EXPECT_LE(got.rank(), 6u);
}

TEST(TruncatedSvd, DispatchesToJacobiForSmall) {
  auto a = random_matrix(30, 12, 41);
  auto got = truncated_svd(a, 5);
  auto want = jacobi_svd(a);
  expect_triplets_match(got, want, 5, 1e-9);
  EXPECT_EQ(got.rank(), 5u);
}

TEST(TruncatedSvd, LanczosPathForLarge) {
  auto a = random_matrix(150, 120, 43);
  auto got = truncated_svd(a, 6, /*dense_cutoff=*/32);
  auto want = jacobi_svd(a);
  expect_triplets_match(got, want, 6, 1e-7);
}

// ---------------------------------------------------------------------------
// Accuracy. One Gram-Schmidt pass (a second only when the DGKS test asks)
// and the bidiagonal QR SVD must keep the factors orthonormal and
// A v_i = sigma_i u_i at machine precision, far inside the invariant
// suite's 1e-8.

/// max_i ||A v_i - sigma_i u_i|| and max_i ||A^T u_i - sigma_i v_i||.
std::pair<double, double> residuals(const LinearOperator& a,
                                    const SvdResult& svd) {
  double av = 0.0;
  double atu = 0.0;
  Vector y(a.rows()), x(a.cols());
  for (index_t i = 0; i < svd.rank(); ++i) {
    a.apply(svd.v.col(i), y);
    axpy(-svd.s[i], svd.u.col(i), y);
    av = std::max(av, norm2(y));
    a.apply_transpose(svd.u.col(i), x);
    axpy(-svd.s[i], svd.v.col(i), x);
    atu = std::max(atu, norm2(x));
  }
  return {av, atu};
}

/// Runs one solve under a sink; returns the DGKS second-pass counter.
std::uint64_t solve_counting_second_passes(const LinearOperator& op,
                                           const LanczosOptions& opts,
                                           SvdResult& svd,
                                           LanczosStats& stats) {
  lsi::obs::Sink sink;
  lsi::obs::ScopedSink scoped(&sink);
  svd = lanczos_svd(op, opts, &stats);
  return sink.metrics().counter("lanczos.reorth_second_passes").value();
}

TEST(LanczosAccuracy, CorpusShardAtMachinePrecision) {
  lsi::synth::CorpusSpec spec;
  spec.topics = 12;
  spec.docs_per_topic = 60;
  const auto corpus = lsi::synth::generate_corpus(spec);
  const auto tdm = lsi::text::build_term_document_matrix(corpus.docs);
  const CscMatrix a =
      lsi::weighting::apply(tdm.counts, lsi::weighting::kLogEntropy);
  CscOperator op(a);
  LanczosOptions opts;
  opts.k = 32;
  LanczosStats stats;
  SvdResult svd;
  const std::uint64_t second =
      solve_counting_second_passes(op, opts, svd, stats);
  ASSERT_EQ(svd.rank(), 32u);
  EXPECT_EQ(stats.converged, 32u);
  EXPECT_EQ(second, stats.reorth_second_passes);
  EXPECT_LE(orthonormality_error(svd.u), 1e-12);
  EXPECT_LE(orthonormality_error(svd.v), 1e-12);
  const auto [av, atu] = residuals(op, svd);
  EXPECT_LE(av, 1e-12 * svd.s[0]);
  // A^T u_i - sigma_i v_i is the Ritz residual the solver accepted.
  EXPECT_LE(atu, opts.tol * svd.s[0]);
}

TEST(LanczosAccuracy, DgksSecondPassKeepsRankDeficientFactorsOrthonormal) {
  // Rank 6 asked for 12 triplets: once the Krylov space holds the range,
  // A v_j falls almost entirely inside span(U_{j-1}), the first pass
  // cancels most of w, and the DGKS test must ask for the second.
  const index_t m = 90;
  const index_t n = 70;
  const index_t rank = 6;
  const DenseMatrix left = random_matrix(m, rank, 51);
  const DenseMatrix right = random_matrix(n, rank, 52);
  const DenseMatrix a = multiply_a_bt(left, right);
  DenseOperator op(a);
  LanczosOptions opts;
  opts.k = 12;
  LanczosStats stats;
  SvdResult svd;
  const std::uint64_t second =
      solve_counting_second_passes(op, opts, svd, stats);
  EXPECT_GT(second, 0u);
  EXPECT_EQ(second, stats.reorth_second_passes);
  ASSERT_EQ(svd.rank(), 12u);
  EXPECT_LE(orthonormality_error(svd.u), 1e-12);
  EXPECT_LE(orthonormality_error(svd.v), 1e-12);
  const SvdResult want = jacobi_svd(a);
  for (index_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(svd.s[i], want.s[i], 1e-12 * want.s[0]) << i;
  }
  const auto [av, atu] = residuals(op, svd);
  EXPECT_LE(av, 1e-12 * svd.s[0]);
  EXPECT_LE(atu, 1e-12 * svd.s[0]);
}

// ---------------------------------------------------------------------------
// The convergence check. ritz_converged must count exactly what the dense
// reference counts: a Jacobi SVD of the bidiagonal and the residual test on
// the last row of its left singular vectors. The bidiagonals come from real
// solves, rebuilt from the Lanczos vectors each solve applied its operator to.

/// Keeps a copy of every vector a solve applies the operator to: the right
/// Lanczos vectors v_1, v_2, ... (apply) and the left ones u_1, u_2, ...
/// (apply_transpose), one of each per step.
class RecordingOperator final : public LinearOperator {
 public:
  explicit RecordingOperator(const LinearOperator& a) : a_(a) {}
  index_t rows() const noexcept override { return a_.rows(); }
  index_t cols() const noexcept override { return a_.cols(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    v.emplace_back(x.begin(), x.end());
    a_.apply(x, y);
  }
  void apply_transpose(std::span<const double> x,
                       std::span<double> y) const override {
    u.emplace_back(x.begin(), x.end());
    a_.apply_transpose(x, y);
  }

  mutable std::vector<Vector> v, u;

 private:
  const LinearOperator& a_;
};

struct Bidiagonal {
  std::vector<double> alphas, betas;
};

/// The first j steps' bidiagonal, B = U_j^T A V_j (av[i] = A v_i), with
/// beta_j the norm of A^T u_j after two Gram-Schmidt passes against
/// v_1..v_j (as the solver takes it).
Bidiagonal rebuild(const LinearOperator& a, const RecordingOperator& rec,
                   const std::vector<Vector>& av, index_t j) {
  Bidiagonal b;
  for (index_t i = 0; i < j; ++i) {
    b.alphas.push_back(dot(rec.u[i], av[i]));
    if (i + 1 < j) b.betas.push_back(dot(rec.u[i], av[i + 1]));
  }
  Vector atu(a.cols());
  a.apply_transpose(rec.u[j - 1], atu);
  for (int pass = 0; pass < 2; ++pass) {
    for (index_t i = 0; i < j; ++i) axpy(-dot(atu, rec.v[i]), rec.v[i], atu);
  }
  b.betas.push_back(norm2(atu));
  return b;
}

/// The reference rule: a Jacobi SVD of B and the residual test on the last
/// row of its left singular vectors.
index_t jacobi_converged(const Bidiagonal& b, index_t k, double tol) {
  const index_t j = b.alphas.size();
  DenseMatrix m(j, j);
  for (index_t i = 0; i < j; ++i) {
    m(i, i) = b.alphas[i];
    if (i + 1 < j) m(i, i + 1) = b.betas[i];
  }
  const SvdResult s = jacobi_svd(m);
  const double sigma1 = s.s.empty() ? 0.0 : s.s[0];
  if (sigma1 == 0.0) return k;
  index_t good = 0;
  for (index_t i = 0; i < std::min(k, j); ++i) {
    if (std::fabs(b.betas[j - 1] * s.u(j - 1, i)) / sigma1 <= tol) ++good;
  }
  return good;
}

/// Solves for k triplets and, at every step where the solver ran its
/// periodic check and at its last step, expects ritz_converged to equal the
/// Jacobi rule on the rebuilt bidiagonal. Also expects the solve to have
/// continued past every check the Jacobi rule rejects and stopped at the
/// first it accepts. Returns the number of periodic checks compared.
int expect_checks_match_jacobi(const LinearOperator& a, index_t k) {
  RecordingOperator rec(a);
  LanczosOptions opts;
  opts.k = k;
  LanczosStats stats;
  (void)lanczos_svd(rec, opts, &stats);
  const index_t steps = stats.steps;
  EXPECT_GT(steps, 0u);
  if (steps == 0) return 0;
  rec.v.resize(std::min<index_t>(rec.v.size(), steps + 1));
  rec.u.resize(steps);
  std::vector<Vector> av(rec.v.size(), Vector(a.rows()));
  for (index_t i = 0; i < rec.v.size(); ++i) a.apply(rec.v[i], av[i]);

  // The solver's check schedule (la/lanczos.cpp).
  const index_t minmn = std::min(a.rows(), a.cols());
  k = std::min(k, minmn);
  const index_t max_dim =
      std::min<index_t>(minmn, std::max<index_t>(6 * k + 48, 128));
  int checks = 0;
  for (index_t j = std::min(max_dim, k + std::max<index_t>(8, k / 8));
       j < max_dim && j <= steps; j += std::max<index_t>(8, k / 4)) {
    const Bidiagonal b = rebuild(a, rec, av, j);
    const index_t want = jacobi_converged(b, k, opts.tol);
    EXPECT_EQ(ritz_converged(b.alphas, b.betas, k, opts.tol), want)
        << "check at step " << j;
    if (j < steps) {
      EXPECT_LT(want, std::min(k, j)) << "solve went past step " << j;
    } else {
      EXPECT_GE(want, std::min(k, j)) << "solve stopped at step " << j;
    }
    ++checks;
  }
  const Bidiagonal last = rebuild(a, rec, av, steps);
  EXPECT_EQ(ritz_converged(last.alphas, last.betas, k, opts.tol),
            jacobi_converged(last, k, opts.tol))
      << "last step " << steps;
  return checks;
}

TEST(RitzCheck, MatchesJacobiRuleOnSparse) {
  auto s = random_sparse(300, 200, 0.05, 13);
  CscOperator op(s);
  EXPECT_GT(expect_checks_match_jacobi(op, 12), 1);
}

TEST(RitzCheck, MatchesJacobiRuleOnRepeatedSingularValues) {
  // Five distinct values, each 40 times: the Krylov space holds one copy of
  // each until a restart.
  CooBuilder b(200, 200);
  for (index_t i = 0; i < 200; ++i) {
    b.add(i, i, 1.0 + static_cast<double>(i % 5));
  }
  auto s = b.to_csc();
  CscOperator op(s);
  EXPECT_GE(expect_checks_match_jacobi(op, 8), 1);
}

TEST(RitzCheck, MatchesJacobiRuleOnRankOne) {
  CooBuilder b(60, 50);
  b.add(0, 0, 6.0);
  auto s = b.to_csc();
  CscOperator op(s);
  EXPECT_GE(expect_checks_match_jacobi(op, 3), 1);
}

TEST(RitzCheck, MatchesJacobiRuleOnZeroMatrix) {
  CooBuilder b(60, 50);
  auto s = b.to_csc();
  CscOperator op(s);
  EXPECT_GE(expect_checks_match_jacobi(op, 3), 1);
}

TEST(RitzCheck, MatchesJacobiRuleOnWideMatrix) {
  auto s = random_sparse(30, 100, 0.1, 29);
  CscOperator op(s);
  EXPECT_GE(expect_checks_match_jacobi(op, 6), 1);
}

TEST(RitzCheck, MatchesJacobiRuleWhenKrylovSpaceIsExhausted) {
  // k = min(m, n): no periodic check fits, and the last step has
  // dim == minmn with beta_j ~ 0.
  auto a = random_matrix(15, 10, 17);
  DenseOperator op(a);
  EXPECT_EQ(expect_checks_match_jacobi(op, 10), 0);
}

TEST(RitzCheck, MatchesJacobiRuleOnCorpusShard) {
  lsi::synth::CorpusSpec spec;
  spec.topics = 12;
  spec.docs_per_topic = 60;
  const auto corpus = lsi::synth::generate_corpus(spec);
  const auto tdm = lsi::text::build_term_document_matrix(corpus.docs);
  const CscMatrix a =
      lsi::weighting::apply(tdm.counts, lsi::weighting::kLogEntropy);
  ASSERT_GT(std::min(a.rows(), a.cols()), 240u);
  CscOperator op(a);
  EXPECT_GT(expect_checks_match_jacobi(op, 32), 5);
}

TEST(RitzCheck, ZeroSingularValueReadsItsOwnLeftVector) {
  // B = [3 4; 0 0] has sigma = {5, 0}. The left vector of 5 is e_1, so the
  // top residual is 0 whatever beta_j is; the left vector of 0 is e_2, so
  // the second residual is |beta_j| / 5. The zero pair of the Golub–Kahan
  // tridiagonal does not split as (q, +-p) / sqrt(2); the check still reads
  // |p_last| = 1 from it.
  const Bidiagonal b{{3.0, 0.0}, {4.0, 1e-3}};
  EXPECT_EQ(ritz_converged(b.alphas, b.betas, 1, 1e-10), 1u);
  EXPECT_EQ(ritz_converged(b.alphas, b.betas, 2, 1e-10), 1u);
  EXPECT_EQ(ritz_converged(b.alphas, b.betas, 2, 1e-3), 2u);
  // The Jacobi rule differs for a zero singular value: jacobi_svd leaves a
  // zero U column there, so the rule read a residual of 0. In the rank-one
  // and zero-matrix solves above, zero singular values meet beta_j = 0,
  // where both rules count them.
  EXPECT_EQ(jacobi_converged(b, 2, 1e-10), 2u);
  EXPECT_EQ(ritz_converged({}, {}, 4, 1e-10), 4u);
}

}  // namespace
