#pragma once
// The LSI semantic space: the rank-k truncated SVD A_k = U_k S_k V_k^T of a
// (weighted) term-document matrix (the paper's Figure 1 / Table 1):
//
//   A_k : best rank-k approximation to A      m : number of terms
//   U   : term vectors  (m x k)               n : number of documents
//   S   : singular values (k)                 k : number of factors
//   V   : document vectors (n x k)            r : rank of A
//
// Terms live in the rows of U, documents in the rows of V. Everything
// downstream (queries, folding-in, SVD-updating) operates on this struct.

#include <array>
#include <memory>
#include <vector>

#include "la/lanczos.hpp"
#include "la/sparse.hpp"
#include "la/svd_types.hpp"
#include "lsi/status.hpp"

namespace lsi::core {

using la::index_t;

class Bf16DocStore;

/// Inner-product convention used when comparing queries to documents (see
/// retrieval.hpp for the full derivation of the three conventions). Declared
/// here because SemanticSpace caches per-document norms keyed by mode.
enum class SimilarityMode {
  kColumnSpace,  ///< cos(q_hat * S, v_j * S)
  kProjected,    ///< cos(q_hat,     v_j * S)
  kPlainV,       ///< cos(q_hat,     v_j)
};

inline constexpr std::size_t kNumSimilarityModes = 3;

struct SemanticSpace {
  la::DenseMatrix u;           ///< m x k, term vectors in rows
  std::vector<double> sigma;   ///< k singular values, descending
  la::DenseMatrix v;           ///< n x k, document vectors in rows

  index_t k() const noexcept { return sigma.size(); }
  index_t num_terms() const noexcept { return u.rows(); }
  index_t num_docs() const noexcept { return v.rows(); }

  /// Per-document 2-norms of the coordinates `mode` compares against
  /// (||v_j .* sigma|| for the sigma-scaled modes, ||v_j|| for kPlainV),
  /// computed lazily on first use and cached — the batched scorer divides by
  /// these instead of renormalizing every document for every query.
  ///
  /// Mutators in this library (folding, updating) invalidate the cache; code
  /// that writes u/sigma/v directly must call invalidate_doc_norms(). A
  /// row-count guard additionally catches appended documents. The lazy fill
  /// is not safe under concurrent first use; call once before sharing a
  /// space across threads.
  const std::vector<double>& doc_norms(SimilarityMode mode) const;

  /// Drops every cached per-mode norm vector (call after mutating v/sigma).
  void invalidate_doc_norms() noexcept;

  /// Per-term norms ||sigma .* u_i|| (gather::term_norms), the denominators
  /// of the facet scorer. Same cache protocol as doc_norms(): filled lazily
  /// and by prewarm_doc_norms(), dropped by invalidate_doc_norms(), refilled
  /// when the row count of U changes. Appending documents leaves it valid.
  const std::vector<double>& term_norms() const;

  /// Eagerly fills the norm cache for every SimilarityMode and the term-norm
  /// cache. After this call, doc_norms() and term_norms() are pure reads, so
  /// the space can be shared read-only across threads (the snapshot-publish
  /// path of lsi/concurrent.hpp prewarms every published space — see
  /// docs/CONCURRENCY.md: caches are made valid *by construction*, never by
  /// locking readers).
  void prewarm_doc_norms() const;

  /// Append-only cache maintenance: after new document rows were appended
  /// to V (folding-in), extends every already-filled mode cache with the
  /// norms of rows [old_num_docs, num_docs()) instead of recomputing all n
  /// of them. The extended entries are computed exactly like the lazy fill,
  /// so the result is bit-identical to an invalidate-and-refill. Caches that
  /// were cold (or whose length does not match `old_num_docs`) are cleared.
  /// Only valid for mutations that appended rows and left the existing rows
  /// and sigma untouched; rotations must call invalidate_doc_norms().
  void extend_doc_norms(index_t old_num_docs) const;

  /// Opt-in compressed (bf16) mirror of V for the scoring sweep
  /// (lsi/doc_store.hpp, docs/KERNELS.md). The flag is sticky across copies
  /// and survives invalidation; the store itself follows the exact norm-
  /// cache protocol above: lazily (re)built on first use after a mutation,
  /// extended in O(p k) by extend_doc_norms() after appends, dropped by
  /// invalidate_doc_norms(), made valid-by-construction by
  /// prewarm_doc_norms() before a space is shared across threads.
  void set_compress_docs(bool on);
  bool compress_docs() const noexcept { return compress_docs_; }

  /// The compressed store when compression is enabled (lazily building if
  /// stale — same single-threaded-first-use caveat as doc_norms), else
  /// null. BatchedRetriever switches to the bf16 sweep iff this is non-null.
  const Bf16DocStore* compressed_docs() const;

  /// Installs an already-built store (the io load path); implies
  /// set_compress_docs(true). The store must match this space's shape.
  void adopt_compressed_docs(std::shared_ptr<const Bf16DocStore> store);

  /// Row i of U (term i's k-vector).
  la::Vector term_vector(index_t i) const { return u.row(i); }
  /// Row j of V (document j's k-vector).
  la::Vector doc_vector(index_t j) const { return v.row(j); }

  /// Row j of V scaled by the singular values — the coordinates the paper
  /// plots in Figures 4-9 and compares queries against.
  la::Vector doc_coords(index_t j) const;
  /// Row i of U scaled by the singular values.
  la::Vector term_coords(index_t i) const;

  /// Reconstructs A_k (tests and small examples only).
  la::DenseMatrix reconstruct() const;

 private:
  /// Shared fill kernel for the lazy fill / prewarm / append-extension
  /// paths: computes norms for rows [begin, end) into `norms` (pre-sized).
  void fill_doc_norm_range(SimilarityMode mode, index_t begin, index_t end,
                           std::vector<double>& norms) const;

  /// One lazily-filled norm vector per SimilarityMode; empty = not computed.
  mutable std::array<std::vector<double>, kNumSimilarityModes> doc_norm_cache_;
  /// Lazily-filled term_norms(); size != num_terms() = not computed.
  mutable std::vector<double> term_norm_cache_;

  /// Compressed-store request flag + lazily-built immutable store (shared
  /// with copies of this space until a mutation invalidates it).
  bool compress_docs_ = false;
  mutable std::shared_ptr<const Bf16DocStore> bf16_store_;
};

struct BuildOptions {
  /// Below this min(m, n) the dense Jacobi SVD is used instead of Lanczos.
  /// 0 forces the Lanczos path even on tiny matrices (useful to exercise the
  /// instrumented sparse solver from the CLI).
  index_t dense_cutoff = 96;
  la::LanczosOptions lanczos;  ///< k field is set by the builder's `k`
};

/// Canonical builder: computes the rank-k truncated SVD of a (weighted)
/// term-document matrix and packages it as a semantic space. k is clamped to
/// min(m, n) (asking for more factors than the shape admits is routine when
/// sweeping k). Fails with InvalidArgument on an empty matrix or k == 0, and
/// Internal if the solver signals non-convergence
/// (LanczosOptions::throw_if_not_converged). Runs under the "build.svd"
/// trace span; `stats` receives the Lanczos convergence counters and
/// measured flops.
Expected<SemanticSpace> try_build_semantic_space(
    const la::CscMatrix& a, index_t k, const BuildOptions& opts = {},
    la::LanczosStats* stats = nullptr);

/// Flips the sign of space factors so they best match `reference` (another
/// U matrix over the same terms, e.g. the paper's printed Figure 5 U_2).
/// Sign choice is a free parameter of any SVD; aligning makes plots and
/// printed coordinates comparable.
void align_signs_to(SemanticSpace& space, const la::DenseMatrix& reference);

/// Orthogonality loss ||Q^T Q - I||_2 (spectral norm), the Section 4.3
/// measure of how much folding-in has corrupted a basis.
double orthogonality_loss(const la::DenseMatrix& q);

/// Fraction of the matrix's squared Frobenius norm captured by the first k
/// singular values of `sigma` (Theorem 2.1: ||A||_F^2 = sum sigma_i^2).
/// `sigma` must be the full (or longest available) spectrum.
double energy_captured(const std::vector<double>& sigma, index_t k);

/// Smallest k whose truncation captures at least `energy_fraction` of the
/// spectrum's squared mass — a principled starting point for the
/// Section 5.2 "choosing the number of factors" question (retrieval
/// performance should still be validated around it).
index_t suggest_k(const std::vector<double>& sigma, double energy_fraction);

}  // namespace lsi::core
