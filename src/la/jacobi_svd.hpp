#pragma once
// Dense SVD by one-sided Jacobi rotations.
//
// This is the workhorse for the *small dense* decompositions in the LSI
// pipeline: the inner matrices F, H, Q of the SVD-updating phases (Section
// 4.2 of the paper), subspace iteration's projected block, and dense inputs
// below truncated_svd's cutoff. (The Lanczos solver's bidiagonal has its
// own QR SVD, la::bidiagonal_svd in la/tridiag_eig.hpp.)
// One-sided Jacobi is chosen because it is simple, unconditionally stable,
// and computes small singular values to high relative accuracy.

#include "la/dense.hpp"
#include "la/svd_types.hpp"

namespace lsi::la {

struct JacobiOptions {
  int max_sweeps = 60;      ///< hard cap on cyclic sweeps
  double tol = 1e-14;       ///< relative off-diagonal convergence threshold
};

/// Full thin SVD of a dense matrix (any shape; internally works on the
/// orientation with rows >= cols). Returns min(m, n) triplets with
/// descending singular values and the deterministic sign convention applied.
/// Throws std::runtime_error if sweeps are exhausted before convergence
/// (does not happen for the sizes this library produces).
SvdResult jacobi_svd(const DenseMatrix& a, const JacobiOptions& opts = {});

}  // namespace lsi::la
