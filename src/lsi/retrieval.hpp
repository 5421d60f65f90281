#pragma once
// Query projection (Equation 6) and cosine retrieval (Section 2.2):
//
//   q_hat = q^T U_k S_k^{-1}
//
// The query vector lands at the weighted sum of its constituent term
// vectors; documents are ranked by cosine similarity and the z closest (or
// all above a threshold) are returned.
//
// The paper leaves the exact inner-product convention implicit, so the mode
// is explicit here. With q_hat from Equation 6 and document j at row v_j of
// V_k, the three conventions in the LSI literature are all cosines of
// sigma-rescaled pairs:
//
//   kColumnSpace:  cos(U_k^T q,  S_k v_j)  = cos(q_hat S_k, v_j S_k)
//                  == cosine between the raw query and *column j of A_k* —
//                  reproduces the paper's Table 4 rankings best (default);
//   kProjected:    cos(q_hat, v_j S_k) — the geometry actually plotted in
//                  Figures 5/6 (query at q_hat, documents at V_k S_k);
//   kPlainV:       cos(q_hat, v_j) — unscaled factor space.

#include <cstdint>
#include <span>
#include <vector>

#include "la/sparse.hpp"
#include "lsi/search_options.hpp"
#include "lsi/semantic_space.hpp"

namespace lsi::core {

// SimilarityMode itself lives in semantic_space.hpp (the per-document norm
// cache is keyed by it); it is re-exported here for all retrieval callers.

/// Per-call timing and work counters reported by the retrieval engine.
/// Fields ACCUMULATE: pass the same struct to QueryBatch::from_term_vectors
/// and BatchedRetriever::rank to get the full projection + scoring +
/// selection breakdown of one logical batch, or zero it between calls.
/// Stages a call does not execute (e.g. projection when the batch was built
/// from pre-projected vectors) are left untouched. Times are wall seconds
/// and are always collected (a few steady_clock reads per call, independent
/// of whether an observability sink is installed).
struct QueryStats {
  index_t batch_size = 0;        ///< queries handled
  index_t docs_scored = 0;       ///< documents swept per query (exact path)
  double project_seconds = 0.0;  ///< batched Equation 6 projection
  double score_seconds = 0.0;    ///< cosine sweep over V_k panels
  double select_seconds = 0.0;   ///< threshold + top-z selection
  double total_seconds = 0.0;    ///< wall time of the instrumented calls
  /// Analytic flop count of the kernels actually executed (zero query
  /// weights are skipped by the sweep, so this can undercut the dense
  /// lsi::flops model predictions).
  std::uint64_t flops = 0;
  /// Cluster-pruned candidate generation (lsi/ann.hpp); all zero when every
  /// query in the batch took the exact path.
  index_t ann_pruned_queries = 0;         ///< queries served by pruning
  std::uint64_t ann_centroids_probed = 0; ///< posting lists scanned, summed
  std::uint64_t ann_docs_scanned = 0;     ///< candidates re-ranked, summed
};

struct ScoredDoc {
  index_t doc = 0;
  double cosine = 0.0;
};

/// Equation 6 (and Equation 7, folding in a document) over the nonzeros of
/// a weighted term vector: out = S_k^{-1} U_k^T q via the sparse
/// la::multiply_transpose (factor i sums u(rows[p], i) * values[p] in
/// ascending p), with zero singular values mapping to zero (pseudo-inverse).
/// `rows` must be ascending and below num_terms(); `out` has length k().
/// O(nnz k). The one projection loop: fold-in, project_query and QueryBatch
/// all run it (the SVD-update's U_k^T D runs the same product), and it uses
/// no dispatched kernel, so its bits do not depend on LSI_KERNEL. It matches
/// a dense scalar dot over the whole m-vector bit for bit.
void project_sparse(const SemanticSpace& space, std::span<const index_t> rows,
                    std::span<const double> values, std::span<double> out);

/// Equation 6: projects a weighted sparse term vector into the k-space.
la::Vector project_query(const SemanticSpace& space,
                         const la::SparseVector& terms);

/// Equation 6 on a (weighted) dense m-vector: project_sparse over its
/// nonzeros.
la::Vector project_query(const SemanticSpace& space,
                         std::span<const double> term_vector);

/// Equation 8: projects a (weighted) n-vector of per-document frequencies
/// for a new term into k-space: t_hat = t V_k S_k^{-1}.
la::Vector project_term(const SemanticSpace& space,
                        std::span<const double> doc_vector);

/// Cosine between the projected query (Equation 6 coordinates) and every
/// document, ranked descending, cut by `opts.min_cosine` (applied before
/// the top-`opts.z` selection) under `opts.mode`. Ties broken by document
/// index for determinism. A bare SemanticSpace carries no ANN structure, so
/// the pruning knobs have nothing to steer. Thin wrapper over the batched
/// engine (batched_retrieval.hpp) at batch size 1 — there is exactly one
/// scoring code path, so single-query and batched rankings are identical by
/// construction.
std::vector<ScoredDoc> rank_documents(const SemanticSpace& space,
                                      std::span<const double> query_khat,
                                      const SearchOptions& opts = {},
                                      QueryStats* stats = nullptr);

/// One-call retrieval: project `term_vector` and rank.
std::vector<ScoredDoc> retrieve(const SemanticSpace& space,
                                std::span<const double> term_vector,
                                const SearchOptions& opts = {},
                                QueryStats* stats = nullptr);

/// Cosine between two documents in the space (doc-doc similarity, in the
/// S-scaled coordinates the paper plots).
double document_similarity(const SemanticSpace& space, index_t a, index_t b);

/// Cosine between two terms in the space (rows of U_k S_k — used by the
/// synonym test of Section 5.4).
double term_similarity(const SemanticSpace& space, index_t a, index_t b);

/// Ranks all terms by similarity to the given S-scaled term coordinates —
/// "there is no reason that similar terms could not be returned"
/// (Section 5.4, online thesauri).
std::vector<ScoredDoc> rank_terms(const SemanticSpace& space,
                                  std::span<const double> term_coords,
                                  std::size_t top_z = 0);

/// How a multi-point query combines its per-point cosines.
enum class MultiPointCombiner {
  kMax,  ///< document scores its best point (disjunctive interests)
  kSum,  ///< relevance-density style: points reinforce each other
};

/// Multiple-points-of-interest retrieval (Section 5.4, after Kane-Esrig et
/// al.'s relevance density method): the query is a *set* of k-vectors
/// (each an Equation-6 projection) rather than a single centroid — useful
/// when an information need spans distinct subtopics that would cancel if
/// averaged. Every point is scored in one batched sweep; each document's
/// cosines are then combined per `combiner`, and `opts.min_cosine` /
/// `opts.z` cut the combined ranking.
std::vector<ScoredDoc> rank_documents_multipoint(
    const SemanticSpace& space, const std::vector<la::Vector>& points,
    const SearchOptions& opts = {},
    MultiPointCombiner combiner = MultiPointCombiner::kMax);

}  // namespace lsi::core
