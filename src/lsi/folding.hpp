#pragma once
// Folding-in (Section 2.3): representing new documents/terms in an existing
// semantic space without recomputing the SVD.
//
//   d_hat = d^T U_k S_k^{-1}     (Equation 7, new document -> row of V)
//   t_hat = t   V_k S_k^{-1}     (Equation 8, new term     -> row of U)
//
// Folding-in is cheap (Table 7: 2mkp flops for p dense documents; the
// document fold here runs core::project_sparse, the query projection's own
// loop, over each column's nonzeros: 2 nnz k) but
// appends non-orthogonal rows: the existing structure never moves, and the
// basis orthogonality degrades (Section 4.3) — orthogonality_loss()
// measures it.

#include "la/sparse.hpp"
#include "lsi/semantic_space.hpp"

namespace lsi::core {

/// Folds the columns of D (m x p, weighted like the training matrix) into
/// the space as p new documents: V gains p rows; U, S unchanged. Each new
/// row is project_sparse() of its column, bit-identical to a dense scalar
/// projection of the densified column, and warm doc-norm caches are
/// extended, not refilled.
void fold_in_documents(SemanticSpace& space, const la::CscMatrix& d);

/// Folds the rows of T (q x n, weighted) into the space as q new terms:
/// U gains q rows; S, V unchanged. T's column count must equal num_docs().
void fold_in_terms(SemanticSpace& space, const la::CscMatrix& t);

/// Dense conveniences (columns of d / rows of t as above).
void fold_in_documents(SemanticSpace& space, const la::DenseMatrix& d);
void fold_in_terms(SemanticSpace& space, const la::DenseMatrix& t);

}  // namespace lsi::core
