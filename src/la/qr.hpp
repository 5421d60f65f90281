#pragma once
// Householder QR factorization with thin-Q extraction, on the reflector the
// dense SVD uses too (la/householder.hpp).
//
// Used to orthonormalize bases: the residual blocks of the exact SVD
// updates (lsi/update.hpp), subspace iteration's blocks, and as a reference
// orthogonalizer in tests and benches.

#include "la/dense.hpp"

namespace lsi::la {

struct QrResult {
  DenseMatrix q;  ///< m x min(m,n), orthonormal columns
  DenseMatrix r;  ///< min(m,n) x n, upper triangular
};

/// Thin QR of an m x n matrix via Householder reflections.
QrResult qr_decompose(const DenseMatrix& a);

/// Orthonormalizes the columns of `a` (thin Q). Columns that are linearly
/// dependent (R diagonal below `tol` relative to the largest) are replaced
/// with zero columns so callers can detect rank deficiency.
DenseMatrix orthonormal_columns(const DenseMatrix& a, double tol = 1e-12);

}  // namespace lsi::la
