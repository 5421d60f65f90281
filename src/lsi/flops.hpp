#pragma once
// The computational-complexity model of Table 7 ("Computational complexity
// of updating methods"), with the paper's Table 6 symbols:
//
//   A   m x n   original term-document matrix      I    Lanczos iterations
//   U_k m x k   left singular vectors of A_k       trp  accepted triplets
//   S_k k x k   singular values of A_k             p    new documents
//   V_k n x k   right singular vectors of A_k      q    new terms
//   D   m x p   new document vectors               j    terms with changed
//   T   q x n   new term vectors                        weights
//   Z_j n x j   adjusted term weights
//
// The general sparse-SVD cost skeleton is Section 4.2's
//     I * cost(G^T G x) + trp * cost(G x),
// instantiated per method. The printed table in the SC'95 proceedings is
// OCR-damaged in places; the per-term constants below were reconstructed
// from that skeleton and O'Brien's thesis the paper cites, and every method
// keeps the structure and dominant terms the paper states (notably the
// (2k^2 - k)(m + n) dense-multiplication term that makes SVD-updating
// "considerably more expensive" than folding-in).

#include <cstdint>

namespace lsi::core {

/// Inputs shared by all methods. Set only the fields a method uses.
struct FlopModelParams {
  std::uint64_t m = 0;      ///< terms in the existing space
  std::uint64_t n = 0;      ///< documents in the existing space
  std::uint64_t k = 0;      ///< retained factors
  std::uint64_t p = 0;      ///< new documents
  std::uint64_t q = 0;      ///< new terms
  std::uint64_t j = 0;      ///< terms with changed weights
  std::uint64_t nnz_d = 0;  ///< nonzeros of D
  std::uint64_t nnz_t = 0;  ///< nonzeros of T
  std::uint64_t nnz_z = 0;  ///< nonzeros of Z_j
  std::uint64_t nnz_a = 0;  ///< nonzeros of the rebuilt matrix A~
  std::uint64_t iterations = 0;  ///< Lanczos iterations I
  std::uint64_t triplets = 0;    ///< accepted triplets trp
  std::uint64_t b = 0;           ///< queries in a batch (batched retrieval)
  std::uint64_t nnz_q = 0;       ///< nonzeros of the b weighted queries
};

/// Folding-in p documents: 2mkp.
std::uint64_t flops_fold_documents(const FlopModelParams& x);

/// Folding-in q terms: 2nkq.
std::uint64_t flops_fold_terms(const FlopModelParams& x);

/// SVD-updating documents:
///   I [4 nnz(D) + 4mk + k^2 + 2m + p] + trp [2 nnz(D) + 2mk + m]
///   + (2k^2 - k)(m + n).
std::uint64_t flops_update_documents(const FlopModelParams& x);

/// SVD-updating terms:
///   I [4 nnz(T) + 4kn + k^2 + 2n + q] + trp [2 nnz(T) + 2kn + n]
///   + (2k^2 - k)(m + n).
std::uint64_t flops_update_terms(const FlopModelParams& x);

/// SVD-updating correction step:
///   I [4 nnz(Z_j) + 4km + 2mj + 2kn + 3k^2 + jm]
///   + trp [2 nnz(Z_j) + 2km + 2kn + jn] + (2k^2 - k)(m + n).
std::uint64_t flops_update_weights(const FlopModelParams& x);

/// Recomputing the SVD of the rebuilt (m+q) x (n+p) matrix:
///   I [4 nnz(A~) + (m+q) + (n+p)] + trp [2 nnz(A~) + (m+q)].
std::uint64_t flops_recompute(const FlopModelParams& x);

// --- Batched retrieval (the serving hot path; see batched_retrieval.hpp).

/// Projecting a batch of b queries, Q_hat = S_k^{-1} (U_k^T Q), over their
/// nonzeros: 2 nnz(Q) k for the gathered dots plus kb for the diagonal
/// rescaling.
std::uint64_t flops_batch_project(const FlopModelParams& x);

/// Scoring b projected queries against all n documents: 3kb to build the
/// per-query weights and norms, 2nkb for the V_k-panel sweep, nb for the
/// cosine normalization divides.
std::uint64_t flops_batch_score(const FlopModelParams& x);

/// Building the per-document norm cache for one similarity mode (paid once
/// per space per mode, amortized over every later batch): 3nk + n.
std::uint64_t flops_doc_norm_cache(const FlopModelParams& x);

}  // namespace lsi::core
