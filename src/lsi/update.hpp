#pragma once
// SVD-updating (Section 4): folding new information into the *decomposition*
// rather than just the coordinate lists, at higher cost than folding-in but
// preserving orthogonality and the true rank-k approximation of (A_k | D).
//
// Three phases, applied in any order (Section 4.2):
//   documents:  B = (A_k | D)        -> SVD via F = (S_k | U_k^T D)
//   terms:      C = (A_k ; T)        -> SVD via H = (S_k ; T V_k)
//   weights:    W = A_k + Y_j Z_j^T  -> SVD via Q = S_k + (U_k^T Y)(V_k^T Z)^T
//
// Each phase reduces the big sparse update to a small dense SVD (k+p, k+q or
// k square-ish) followed by the dense products U_k U_F / V_k V_F whose
// O(2k^2 m + 2k^2 n) flops dominate (the paper's Section 4.2 discussion and
// Table 7).

#include "la/sparse.hpp"
#include "lsi/semantic_space.hpp"

namespace lsi::core {

/// SVD-updates the space with p new document columns D (m x p, weighted the
/// same way as the training matrix). The space keeps k factors; V gains p
/// rows and all factor matrices rotate.
///
/// Returns the k x k map M that takes an old document's sigma-scaled
/// coordinates to its new ones: row j < n of V Sigma becomes
/// (V Sigma)(j, :) M. Here M = U_F: from F = U_F Sigma_F V_F^T follows
/// V_F[0:k, :] Sigma_F = Sigma_k U_F, and U_F is orthogonal, so every cosine
/// among old documents survives the update (lsi/ann.hpp rotates its
/// centroids by it). The identity when D is empty.
la::DenseMatrix update_documents(SemanticSpace& space, const la::CscMatrix& d);

/// SVD-updates the space with q new term rows T (q x n, weighted).
void update_terms(SemanticSpace& space, const la::CscMatrix& t);

/// Correction step for changed term weights: W = A_k + Y_j Z_j^T where Y_j
/// (m x j) selects term rows and Z_j (n x j) holds the per-document deltas
/// (see weighting::weight_correction). Factor count is unchanged.
void update_weights(SemanticSpace& space, const la::DenseMatrix& y,
                    const la::DenseMatrix& z);

/// Dense conveniences.
la::DenseMatrix update_documents(SemanticSpace& space, const la::DenseMatrix& d);
void update_terms(SemanticSpace& space, const la::DenseMatrix& t);

// ---------------------------------------------------------------------------
// Exact low-rank updating (extension).
//
// The Section 4.2 method projects new data onto the retained subspaces
// (U_B = U_k U_F can never leave span(U_k)), which is what made folding-in
// vs updating "interesting future research" in Section 4.3. The variants
// below carry the out-of-subspace component explicitly via a thin QR of the
// residual (the construction later published by Zha & Simon), so the result
// IS the truncated SVD of the bordered matrix — at the extra cost of the QR
// and a (k+p)-sized inner SVD.
// ---------------------------------------------------------------------------

/// Exact update: the space becomes the best rank-k approximation of
/// (A_k | D) for *any* D, including components orthogonal to span(U_k).
/// Returns the same old-to-new map as update_documents: the top-left k x k
/// block of U_K, by the same derivation from K's first k columns
/// [[Sigma], [0]]. It is orthogonal only up to the share of the old
/// directions that leaks into the residual ones.
la::DenseMatrix update_documents_exact(SemanticSpace& space,
                                       const la::CscMatrix& d);

/// Exact update: the space becomes the best rank-k approximation of
/// (A_k ; T).
void update_terms_exact(SemanticSpace& space, const la::CscMatrix& t);

/// Exact update: the space becomes the best rank-k approximation of
/// A_k + Y Z^T.
void update_weights_exact(SemanticSpace& space, const la::DenseMatrix& y,
                          const la::DenseMatrix& z);

}  // namespace lsi::core
