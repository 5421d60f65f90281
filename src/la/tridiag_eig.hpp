#pragma once
// Symmetric tridiagonal eigensolver (implicit-shift QL), the classic kernel
// behind Lanczos eigenanalysis of A^T A. Exposed both for tests and as an
// alternative "normal equations" route to small truncated SVDs.

#include <vector>

#include "la/dense.hpp"

namespace lsi::la {

struct TridiagEig {
  std::vector<double> values;  ///< ascending eigenvalues
  DenseMatrix vectors;         ///< column i pairs with values[i]
};

/// Eigendecomposition of the symmetric tridiagonal matrix with diagonal
/// `diag` (size n) and off-diagonal `off` (size n-1, off[i] couples i,i+1).
/// Throws std::runtime_error if the QL iteration fails to converge.
TridiagEig tridiag_eigen(std::vector<double> diag, std::vector<double> off);

/// The same QL iteration accumulating only the last row of the eigenvector
/// matrix: `vectors` is 1 x n, entry i the last component of the eigenvector
/// of values[i]. O(n^2) instead of O(n^3) (the Lanczos Ritz check).
TridiagEig tridiag_eigen_last_row(std::vector<double> diag,
                                  std::vector<double> off);

/// Full eigendecomposition of a dense symmetric matrix via Householder
/// tridiagonalization + QL. Values ascend. Intended for small matrices
/// (orthogonality measurement, tests).
TridiagEig symmetric_eigen(const DenseMatrix& a);

}  // namespace lsi::la
