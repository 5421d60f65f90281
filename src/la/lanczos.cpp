#include "la/lanczos.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "la/kernels.hpp"
#include "la/ritz_check.hpp"
#include "la/tridiag_eig.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace lsi::la {

namespace {

/// Daniel–Gragg–Kaufman–Stewart threshold ("twice is enough"): a second
/// Gram-Schmidt pass runs only when the first left at most this fraction of
/// ||w||, i.e. when cancellation may have left w short of orthogonal.
constexpr double kDgksEta = 0.70710678118654752;  // 1 / sqrt(2)

/// Gram-Schmidt work done in one solve.
struct GramSchmidtTally {
  std::uint64_t flops = 0;   ///< 4 * |w| per basis vector per pass run
  index_t second_passes = 0;  ///< calls whose DGKS test asked for a second
};

/// Modified Gram-Schmidt of `w` against the first `count` columns of `basis`
/// (each projection is taken against the already-updated `w`), with a second
/// pass when the DGKS test asks for one. Full (not selective)
/// reorthogonalization: at LSI problem sizes the O(j * n) cost per step is
/// cheap insurance against the ghost-singular-value problem of plain
/// Lanczos.
void reorthogonalize(std::span<double> w, const DenseMatrix& basis,
                     index_t count, GramSchmidtTally& tally) {
  if (count == 0) return;
  // The projection dot and the correction axpy are the solver's O(j * n)
  // hot loops; they run through the dispatched kernels (la/kernels.hpp).
  // The dot is a reduction, so different kernels converge along slightly
  // different (equally valid) paths; within one kernel the solve stays
  // deterministic.
  const kern::Ops& kern_ops = kern::active();
  const auto pass = [&] {
    for (index_t j = 0; j < count; ++j) {
      auto bj = basis.col(j);
      const double proj = kern_ops.dot(w.data(), bj.data(), w.size());
      if (proj != 0.0) kern_ops.axpy(-proj, bj.data(), w.data(), w.size());
    }
    tally.flops += 4ull * w.size() * count;
  };
  // Squared norms: ||w_after|| <= eta ||w_before|| as a comparison of dots.
  // A w that is exactly zero (a zero operator) has nothing left to project.
  const double before = kern_ops.dot(w.data(), w.data(), w.size());
  pass();
  const double after = kern_ops.dot(w.data(), w.data(), w.size());
  if (after > kDgksEta * kDgksEta * before || after == 0.0) return;
  ++tally.second_passes;
  pass();
}

/// Fills `w` with unit-norm random data orthogonal to the current basis;
/// returns false if no such direction can be found (space exhausted).
bool random_orthogonal(std::span<double> w, const DenseMatrix& basis,
                       index_t count, util::Rng& rng,
                       GramSchmidtTally& tally) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    for (double& x : w) x = rng.normal();
    normalize(w);
    reorthogonalize(w, basis, count, tally);
    if (normalize(w) > 1e-8) return true;
  }
  return false;
}

}  // namespace

index_t ritz_converged(std::span<const double> alphas,
                       std::span<const double> betas, index_t k, double tol) {
  const index_t j = alphas.size();
  assert(betas.size() == j);
  if (j == 0) return k;
  std::vector<double> off(2 * j - 1);
  for (index_t i = 0; i < j; ++i) {
    off[2 * i] = alphas[i];
    if (i + 1 < j) off[2 * i + 1] = betas[i];
  }
  const TridiagEig eig =
      tridiag_eigen_last_row(std::vector<double>(2 * j, 0.0), std::move(off));
  // Ascending values: +sigma_i sits at 2j - 1 - i and -sigma_i at i.
  const double sigma1 = eig.values.back();
  if (sigma1 == 0.0) return k;
  const double beta_tail = betas[j - 1];
  index_t good = 0;
  for (index_t i = 0; i < std::min(k, j); ++i) {
    const double p_last =
        std::hypot(eig.vectors(0, 2 * j - 1 - i), eig.vectors(0, i));
    if (std::fabs(beta_tail * p_last) / sigma1 <= tol) ++good;
  }
  return good;
}

SvdResult lanczos_svd(const LinearOperator& op, const LanczosOptions& opts,
                      LanczosStats* stats) {
  LSI_OBS_SPAN(span_total, "lanczos");
  const index_t m = op.rows();
  const index_t n = op.cols();
  const index_t minmn = std::min(m, n);
  const index_t k = std::min(opts.k, minmn);
  LanczosStats local_stats;
  LanczosStats& st = stats ? *stats : local_stats;
  st = LanczosStats{};

  SvdResult out;
  if (k == 0 || m == 0 || n == 0) return out;

  index_t max_dim = opts.max_dim;
  if (max_dim == 0) {
    max_dim = std::min<index_t>(minmn, std::max<index_t>(6 * k + 48, 128));
  }
  max_dim = std::clamp<index_t>(max_dim, k, minmn);

  util::Rng rng(opts.seed);
  DenseMatrix vbasis(n, max_dim);     // right Lanczos vectors v_1..v_dim
  DenseMatrix ubasis(m, max_dim);     // left Lanczos vectors u_1..u_dim
  std::vector<double> alphas, betas;  // bidiagonal entries; sizes stay equal
  alphas.reserve(max_dim);
  betas.reserve(max_dim);

  {
    auto v0 = vbasis.col(0);
    for (double& x : v0) x = rng.normal();
    normalize(v0);
  }

  Vector scratch_m(m), scratch_n(n);
  bool exhausted = false;

  // Checks are periodic once the basis could possibly contain k triplets.
  const index_t check_margin = std::max<index_t>(8, k / 8);
  index_t next_check = std::min<index_t>(max_dim, k + check_margin);

  // Measured flops of the dominant kernels; recorded into st.flops and the
  // active obs sink at exit. Each Gram-Schmidt pass costs
  // count x (dot + axpy) = 4 * |w| * count flops (`gs` tallies them).
  const std::uint64_t matvec_flops = op.apply_flops();
  std::uint64_t measured_flops = 0;
  GramSchmidtTally gs;

  index_t j = 0;
  for (; j < max_dim;) {
    {
      // u_j = A v_j - beta_{j-1} u_{j-1}
      LSI_OBS_SPAN(span_mv, "lanczos.matvec");
      op.apply(vbasis.col(j), scratch_m);
    }
    ++st.matvecs;
    measured_flops += matvec_flops;
    if (j > 0) axpy(-betas[j - 1], ubasis.col(j - 1), scratch_m);
    {
      LSI_OBS_SPAN(span_reorth, "lanczos.reorth");
      reorthogonalize(scratch_m, ubasis, j, gs);
    }
    double alpha = norm2(scratch_m);
    if (alpha <= 1e-13) {
      // A v_j already lies in span(U_{j-1}); restart an orthogonal block.
      if (!random_orthogonal(scratch_m, ubasis, j, rng, gs)) {
        exhausted = true;
        break;
      }
      alpha = 0.0;
    } else {
      scale(scratch_m, 1.0 / alpha);
    }
    std::copy(scratch_m.begin(), scratch_m.end(), ubasis.col(j).begin());
    alphas.push_back(alpha);

    {
      // beta_j and (if room) v_{j+1}:  w = A^T u_j - alpha_j v_j.
      LSI_OBS_SPAN(span_mv, "lanczos.matvec");
      op.apply_transpose(ubasis.col(j), scratch_n);
    }
    ++st.matvecs_transpose;
    measured_flops += matvec_flops;
    axpy(-alphas[j], vbasis.col(j), scratch_n);
    {
      LSI_OBS_SPAN(span_reorth, "lanczos.reorth");
      reorthogonalize(scratch_n, vbasis, j + 1, gs);
    }
    double beta = norm2(scratch_n);
    if (beta <= 1e-13) {
      beta = 0.0;
      if (j + 1 < max_dim &&
          !random_orthogonal(scratch_n, vbasis, j + 1, rng, gs)) {
        betas.push_back(0.0);
        ++j;
        exhausted = true;
        break;
      }
    } else {
      scale(scratch_n, 1.0 / beta);
    }
    betas.push_back(beta);
    ++j;
    if (j < max_dim) {
      std::copy(scratch_n.begin(), scratch_n.end(), vbasis.col(j).begin());
    }

    // A check never sees an exhausted space or j == minmn (both end the
    // loop first), so the residual test alone decides.
    if (j >= next_check && j < max_dim) {
      LSI_OBS_SPAN(span_check, "lanczos.ritz_check");
      if (ritz_converged(alphas, betas, k, opts.tol) >= std::min(k, j)) break;
      next_check = std::min<index_t>(max_dim, j + std::max<index_t>(8, k / 4));
    }
  }

  const index_t dim = alphas.size();
  st.steps = dim;
  if (dim == 0) return out;

  SvdResult small;  // SVD of the bidiagonal projection: the final factors
  {
    // B(i, i) = alpha_i and B(i, i+1) = beta_i, so A V = U B exactly; the
    // last beta couples step dim to the next Lanczos vector, outside B.
    LSI_OBS_SPAN(span_factor, "lanczos.factor_svd");
    small = bidiagonal_svd(alphas, std::span(betas).first(dim - 1));
  }
  const index_t keep = std::min<index_t>(k, dim);
  const double sigma1 = small.s.empty() ? 0.0 : small.s[0];
  const double beta_tail = betas[dim - 1];
  for (index_t i = 0; i < keep; ++i) {
    const double resid =
        sigma1 > 0.0 ? std::fabs(beta_tail * small.u(dim - 1, i)) / sigma1
                     : 0.0;
    st.max_residual = std::max(st.max_residual, resid);
    if (resid <= opts.tol || exhausted || dim == minmn) ++st.converged;
  }
  // The two assembly GEMMs: (m x dim)(dim x keep) and (n x dim)(dim x keep).
  measured_flops += 2ull * (m + n) * dim * keep;
  st.flops = measured_flops + gs.flops;
  st.reorth_second_passes = gs.second_passes;
  if (obs::Sink* sink = obs::Sink::active()) {
    obs::MetricsRegistry& reg = sink->metrics();
    reg.counter("lanczos.steps").add(st.steps);
    reg.counter("lanczos.matvecs").add(st.matvecs);
    reg.counter("lanczos.matvecs_transpose").add(st.matvecs_transpose);
    reg.counter("lanczos.converged").add(st.converged);
    reg.counter("lanczos.flops_measured").add(st.flops);
    reg.counter("lanczos.reorth_second_passes").add(st.reorth_second_passes);
    reg.gauge("lanczos.max_residual").set(st.max_residual);
  }
  if (opts.throw_if_not_converged && st.converged < keep) {
    throw std::runtime_error("lanczos_svd: not converged; raise max_dim");
  }

  // Assemble: U = U_dim * P, V = V_dim * Q, truncated to `keep`.
  LSI_OBS_SPAN(span_assemble, "lanczos.assemble");
  small.truncate(keep);
  // The first dim columns of a column-major basis are a prefix of its
  // storage: the GEMMs read them in place instead of from an (m + n) x dim
  // copy, with la::multiply's arithmetic.
  const kern::Ops& ops = kern::active();
  out.u = DenseMatrix(m, keep);
  ops.matmul(ubasis.data(), m, small.u.data(), dim, out.u.data(), m, m, keep,
             dim);
  out.v = DenseMatrix(n, keep);
  ops.matmul(vbasis.data(), n, small.v.data(), dim, out.v.data(), n, n, keep,
             dim);
  out.s = std::move(small.s);
  normalize_signs(out);
  return out;
}

SvdResult lanczos_svd(const CscMatrix& a, const LanczosOptions& opts,
                      LanczosStats* stats) {
  CscOperator op(a);
  return lanczos_svd(op, opts, stats);
}

}  // namespace lsi::la
