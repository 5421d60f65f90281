#pragma once
// Dense SVD by one-sided Jacobi rotations: the test-only reference the
// solver tests compare la::golub_kahan_svd, la::bidiagonal_svd, the Lanczos
// and subspace solvers and the SVD-updates against. It shares no code with
// them beyond the level-1 kernels, and computes small singular values to
// high relative accuracy. Library code uses la::golub_kahan_svd.

#include "la/dense.hpp"
#include "la/svd_types.hpp"

namespace lsi::la {

/// Full thin SVD of a dense matrix (any shape; internally works on the
/// orientation with rows >= cols). Returns min(m, n) triplets with
/// descending singular values and the sign convention of normalize_signs
/// applied; a zero singular value gets a zero U column. Throws
/// std::runtime_error if 60 cyclic sweeps do not converge.
SvdResult jacobi_svd(const DenseMatrix& a);

}  // namespace lsi::la
