#include "la/subspace.hpp"

#include <algorithm>
#include <cmath>

#include "la/golub_kahan_svd.hpp"
#include "la/qr.hpp"
#include "util/rng.hpp"

namespace lsi::la {

namespace {

/// y_block[:, j] = op applied to x_block[:, j].
void apply_block(const LinearOperator& op, bool transpose,
                 const DenseMatrix& x, DenseMatrix& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    if (transpose) {
      op.apply_transpose(x.col(j), y.col(j));
    } else {
      op.apply(x.col(j), y.col(j));
    }
  }
}

}  // namespace

SvdResult subspace_svd(const LinearOperator& op, const SubspaceOptions& opts,
                       SubspaceStats* stats) {
  const index_t m = op.rows();
  const index_t n = op.cols();
  const index_t minmn = std::min(m, n);
  const index_t k = std::min(opts.k, minmn);
  SubspaceStats local;
  SubspaceStats& st = stats ? *stats : local;
  st = SubspaceStats{};

  SvdResult out;
  if (k == 0 || m == 0 || n == 0) return out;
  const index_t block = std::min<index_t>(minmn, k + opts.oversample);

  // Random orthonormal start block in document space.
  util::Rng rng(opts.seed);
  DenseMatrix v(n, block);
  for (index_t j = 0; j < block; ++j) {
    for (index_t i = 0; i < n; ++i) v(i, j) = rng.normal();
  }
  v = orthonormal_columns(v);

  DenseMatrix y(m, block);
  DenseMatrix z(n, block);
  std::vector<double> prev_sigma(k, 0.0);

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    ++st.iterations;
    // One round of orthogonal iteration on A^T A: V <- orth(A^T orth(A V)).
    apply_block(op, /*transpose=*/false, v, y);
    st.matvecs += block;
    y = orthonormal_columns(y);
    apply_block(op, /*transpose=*/true, y, z);
    st.matvecs += block;
    v = orthonormal_columns(z);

    // Rayleigh-Ritz every few rounds: SVD of the m x block matrix A V.
    if (iter % 4 == 3 || iter + 1 == opts.max_iterations) {
      apply_block(op, /*transpose=*/false, v, y);
      st.matvecs += block;
      SvdResult small = golub_kahan_svd(y);  // y = (A V) = U S W^T
      bool settled = true;
      for (index_t i = 0; i < k; ++i) {
        const double s = small.s[i];
        const double ref = std::max(small.s[0], 1e-300);
        if (std::fabs(s - prev_sigma[i]) > opts.tol * ref) settled = false;
        prev_sigma[i] = s;
      }
      if (settled || iter + 1 == opts.max_iterations) {
        out.u = small.u.first_cols(k);
        out.s.assign(small.s.begin(), small.s.begin() + k);
        out.v = multiply(v, small.v.first_cols(k));
        normalize_signs(out);
        st.converged = settled;
        return out;
      }
    }
  }
  return out;  // unreachable: the loop always returns at the final iteration
}

SvdResult subspace_svd(const CscMatrix& a, const SubspaceOptions& opts,
                       SubspaceStats* stats) {
  CscOperator op(a);
  return subspace_svd(op, opts, stats);
}

}  // namespace lsi::la
