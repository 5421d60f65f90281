#pragma once
// Batched multi-query retrieval — the serving hot path. At TREC scale
// (Section 4.4) retrieval cost is dominated by projecting and scoring
// *streams* of queries against a fixed semantic space, so the engine scores
// B queries in one sweep instead of B sweeps:
//
//   1. projection: q_hat = S_k^{-1} (U_k^T q) for each query over its
//      nonzeros only (core::project_sparse, 2 nnz k flops) — Equation 6 on
//      the few words a query holds, not on an m-vector. The loop is scalar
//      and kernel-free, so the projected batch has the same bits under
//      every LSI_KERNEL;
//   2. scoring: one sweep over V_k's column panels accumulates
//          scores(j, b) += w(i, b) * V(j, i)
//      for every document j and query b, where w folds the query- and
//      document-side sigma scalings of the SimilarityMode into the k x B
//      weight matrix, so the inner loop reads V_k's raw entries with
//      stride 1 and each V panel is reused by all B queries; panels are
//      cut into document sub-tiles sized from B so the tile x B
//      accumulators stay in L1 across the k factors;
//   3. normalization divides by per-query norms (computed once per batch)
//      and per-document norms (cached on SemanticSpace per mode);
//   4. selection keeps the top z per query with a bounded heap instead of
//      sorting all n scores, after the min_cosine threshold is applied.
//
// Per-element accumulation order never depends on the batch size, the panel
// partitioning, or the thread count, so a query ranked in a batch of 512
// returns bit-identical results to the same query ranked alone.
// rank_documents in retrieval.hpp is a batch-size-1 wrapper over this class.

#include <memory>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse.hpp"
#include "lsi/ann.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/search_options.hpp"

namespace lsi::core {

/// A block of B queries stored as the columns of a k x B column-major
/// matrix of Equation-6 coordinates.
class QueryBatch {
 public:
  QueryBatch() = default;

  /// Wraps already-projected k-vectors, one query per column. Every vector
  /// must have length space.k() (assert in debug; use try_from_projected for
  /// a checked Status instead).
  static QueryBatch from_projected(const SemanticSpace& space,
                                   const std::vector<la::Vector>& qhats);

  /// Checked variant: kInvalidArgument when any vector's length differs from
  /// space.k(). An empty `qhats` is valid and yields an empty batch.
  static Expected<QueryBatch> try_from_projected(
      const SemanticSpace& space, const std::vector<la::Vector>& qhats);

  /// Projects B weighted sparse term vectors (rows strictly ascending, below
  /// space.num_terms(); what SnapshotQueryContext::weighted_terms returns):
  /// Equation 6 per query over its nonzeros (project_sparse). Runs under the
  /// "retrieval.project" span; `stats`, when non-null, accumulates the
  /// projection time and 2 nnz k + k B flops (nnz summed over the batch).
  /// Malformed vectors assert in debug; use try_from_sparse for a checked
  /// Status instead. An empty `term_vectors` is valid and yields an empty
  /// batch that ranks to an empty result list.
  static QueryBatch from_sparse(
      const SemanticSpace& space,
      const std::vector<la::SparseVector>& term_vectors,
      QueryStats* stats = nullptr);

  /// Checked variant: kInvalidArgument when a vector's rows and values
  /// differ in length, or its rows are unsorted, repeated or out of range.
  static Expected<QueryBatch> try_from_sparse(
      const SemanticSpace& space,
      const std::vector<la::SparseVector>& term_vectors,
      QueryStats* stats = nullptr);

  /// from_sparse over the nonzeros of B dense weighted m-vectors (an O(m)
  /// scan each). Every vector must have length space.num_terms() (assert in
  /// debug; use try_from_term_vectors for a checked Status instead).
  static QueryBatch from_term_vectors(
      const SemanticSpace& space,
      const std::vector<la::Vector>& term_vectors,
      QueryStats* stats = nullptr);

  /// Checked variant: kInvalidArgument when any vector's length differs from
  /// space.num_terms().
  static Expected<QueryBatch> try_from_term_vectors(
      const SemanticSpace& space,
      const std::vector<la::Vector>& term_vectors,
      QueryStats* stats = nullptr);

  index_t size() const noexcept { return qhat_.cols(); }
  index_t k() const noexcept { return qhat_.rows(); }

  /// k x B matrix of projected queries, one per column.
  const la::DenseMatrix& projected() const noexcept { return qhat_; }

 private:
  la::DenseMatrix qhat_;
};

/// Per-query background statistics of one rank() call: the first two
/// moments of every cosine the query SCORED, before the min_cosine filter
/// and top-z selection dropped any of them. For an exact sweep that is all
/// num_docs cosines; for a cluster-pruned search it is the scanned
/// candidates. The sharded gather's z-score merge policy standardizes each
/// shard's returned list against these (docs/GATHER.md) — the sweep already
/// computes every cosine, so the moments are a free by-product.
struct ScoreMoments {
  std::size_t count = 0;
  double mean = 0.0;
  double stdev = 0.0;  ///< population standard deviation
};

/// Scores and ranks a QueryBatch against one semantic space.
class BatchedRetriever {
 public:
  /// Non-owning view: `space` must outlive the retriever and stay unmutated
  /// while it is in use (the single-threaded convention).
  explicit BatchedRetriever(const SemanticSpace& space) : space_(space) {}

  /// Snapshot-pinning view: shares ownership of an immutable space (e.g.
  /// IndexSnapshot::space_ptr() from lsi/concurrent.hpp), so the entire
  /// project/score/select pass of every rank() call runs against this one
  /// space even while a writer concurrently publishes newer snapshots.
  explicit BatchedRetriever(std::shared_ptr<const SemanticSpace> space)
      : space_(*space), pinned_(std::move(space)) {}

  /// Snapshot-pinning view WITH the snapshot's cluster-pruned structure
  /// (lsi/ann.hpp): SearchOptions in kAuto/kPruned mode generate candidates
  /// from `ann`'s posting lists instead of sweeping every document. `ann`
  /// may be null (small corpus, pruning disabled) — every query then takes
  /// the exact path.
  BatchedRetriever(std::shared_ptr<const SemanticSpace> space,
                   std::shared_ptr<const AnnIndex> ann)
      : space_(*space), pinned_(std::move(space)), ann_(std::move(ann)) {}

  /// Full cosine matrix (num_docs x B, one query per column), no
  /// filtering or selection — the building block for layers that combine
  /// scores themselves (multi-point queries, fan-out merging). Runs under
  /// the "retrieval.score" span; `stats` accumulates the sweep time and
  /// flops when non-null.
  la::DenseMatrix scores(const QueryBatch& batch, SimilarityMode mode,
                         QueryStats* stats = nullptr) const;

  /// result[b] is query b's ranking: cosine descending, ties broken by
  /// ascending document index (the shared lsi/ranking.hpp order);
  /// `opts.min_cosine` is applied before top-z selection; selection runs
  /// under the "retrieval.select" span and `stats` accumulates the per-stage breakdown
  /// when non-null.
  ///
  /// Candidate generation follows `opts.search` (search_options.hpp): with
  /// an AnnIndex attached and the mode not kExact, each query scores the
  /// centroids, scans the resolved-nprobe nearest posting lists and re-ranks
  /// the candidates with the identical Equation-6 arithmetic — nprobe >=
  /// num_centroids is bit-identical to the exact sweep. Without a structure
  /// (or with kExact) every query takes the exact path.
  ///
  /// Edge cases return cleanly rather than invoking UB: an empty batch
  /// yields an empty result vector, and `opts.z` larger than the number of
  /// documents returns every document passing the threshold.
  ///
  /// `moments`, when non-null, is resized to the batch size and filled with
  /// each query's ScoreMoments (see above); queries that scored nothing get
  /// the zero-count default.
  std::vector<std::vector<ScoredDoc>> rank(
      const QueryBatch& batch, const SearchOptions& opts = {},
      QueryStats* stats = nullptr,
      std::vector<ScoreMoments>* moments = nullptr) const;

  /// Checked variant: kInvalidArgument when a non-empty batch was projected
  /// against a space with a different number of factors than this
  /// retriever's (the release-mode guard for the assert in scores()), the
  /// first SearchOptions::Validate() violation, or kDeadlineExceeded when
  /// `opts.deadline` already expired at entry (coarse-grained: an admitted
  /// batch runs to completion).
  Expected<std::vector<std::vector<ScoredDoc>>> try_rank(
      const QueryBatch& batch, const SearchOptions& opts = {},
      QueryStats* stats = nullptr) const;

  /// The attached cluster-pruning structure (null = exact scans only).
  const std::shared_ptr<const AnnIndex>& ann() const noexcept { return ann_; }

 private:
  std::vector<std::vector<ScoredDoc>> rank_pruned(
      const QueryBatch& batch, const SearchOptions& opts, QueryStats* stats,
      std::vector<ScoreMoments>* moments) const;

  const SemanticSpace& space_;
  /// Keeps the pinned snapshot's space alive (null for the reference ctor).
  std::shared_ptr<const SemanticSpace> pinned_;
  /// Cluster-pruned candidate generator of the pinned snapshot (may be null).
  std::shared_ptr<const AnnIndex> ann_;
};

}  // namespace lsi::core
