#pragma once
// The small-matrix iterations behind the SVDs: the symmetric tridiagonal
// eigensolver (implicit-shift QL) the Lanczos convergence check runs, and
// the bidiagonal SVD (implicit-shift QR) that yields the Lanczos factors and
// finishes la::golub_kahan_svd (la/golub_kahan_svd.hpp).

#include <span>
#include <vector>

#include "la/dense.hpp"
#include "la/svd_types.hpp"

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

/// Full SVD of the n x n upper bidiagonal B with B(i, i) = diag[i] and
/// B(i, i+1) = super[i] (size n-1): B = U diag(s) V^T, s descending, the
/// sign convention of normalize_signs applied. Golub–Kahan–Reinsch
/// implicit-shift QR with the Wilkinson shift, every rotation applied to the
/// columns of U and V: O(n^2) per sweep. Entries at or below eps * ||B|| are
/// treated as zero (a zero diagonal entry is first chased off its row), so
/// singular values are accurate to eps * sigma_1 in absolute terms. Throws
/// std::runtime_error if the iteration fails to converge.
SvdResult bidiagonal_svd(std::span<const double> diag,
                         std::span<const double> super);

}  // namespace lsi::la
