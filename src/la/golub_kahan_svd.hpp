#pragma once
// Dense SVD by Golub–Kahan bidiagonalization: Householder reflectors reduce
// the matrix to upper bidiagonal form B, la::bidiagonal_svd (implicit-shift
// QR, la/tridiag_eig.hpp) decomposes B, and the reflectors are applied back
// to B's singular vectors. O(m n^2) for the reduction and the back-
// transformation plus O(n^2) per QR sweep, against one-sided Jacobi's
// O(m n^2) per sweep over several sweeps.
//
// This is the SVD of the Section 4 document update's F = (S_k | U_k^T D)
// and of the exact update's K (lsi/update.hpp).

#include "la/dense.hpp"
#include "la/svd_types.hpp"

namespace lsi::la {

/// Full thin SVD of a dense matrix of any shape (a wide one is decomposed
/// through its transpose): min(m, n) triplets, s descending, the sign
/// convention of normalize_signs applied, orthonormal columns in both
/// factors even where s is zero. jacobi_svd's contract, except that small
/// singular values are accurate to about eps * s[0] in absolute terms
/// rather than to high relative accuracy. Throws std::runtime_error if the
/// bidiagonal QR fails to converge.
SvdResult golub_kahan_svd(const DenseMatrix& a);

}  // namespace lsi::la
