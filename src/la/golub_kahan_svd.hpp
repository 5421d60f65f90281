#pragma once
// The dense SVD of lsi_la, by Golub–Kahan bidiagonalization: Householder
// reflectors (la/householder.hpp) reduce the matrix to upper bidiagonal form
// B, la::bidiagonal_svd (implicit-shift QR, la/tridiag_eig.hpp) decomposes
// B, and the reflectors are applied back to B's singular vectors. O(m n^2)
// for the reduction and the back-transformation plus O(n^2) per QR sweep.
//
// Every small dense SVD goes through it: the Section 4 updates' F, H and Q
// and the exact updates' K (lsi/update.hpp), subspace iteration's
// Rayleigh-Ritz block, the dense build path below its cutoff, and
// orthogonality_loss.

#include "la/dense.hpp"
#include "la/svd_types.hpp"

namespace lsi::la {

/// Full thin SVD of a dense matrix of any shape (a wide one is decomposed
/// through its transpose): min(m, n) triplets, s descending, the sign
/// convention of normalize_signs applied, orthonormal columns in both
/// factors even where s is zero. Singular values are accurate to about
/// eps * s[0] in absolute terms (not to high relative accuracy). On a
/// block-diagonal matrix (disjoint vocabularies) U and V are exactly zero
/// outside the blocks: a reflector with nothing to clear is the identity,
/// and zero entries of a reflector leave their rows untouched. Throws
/// std::runtime_error if the bidiagonal QR fails to converge.
SvdResult golub_kahan_svd(const DenseMatrix& a);

}  // namespace lsi::la
