#pragma once
// Cluster-pruned ANN candidate generation in semantic space (docs/ANN.md).
//
// Exact Equation-6 retrieval scores every document: O(n*k) per query per
// shard, which caps corpus size (ROADMAP item 3). This header adds the
// classic cluster-pruning structure, built in the *reduced* space — the
// term-document matrix-model analysis of Antonellis & Gallopoulos (PAPERS.md)
// motivates clustering rows of V_k rather than term vectors:
//
//   build   spherical k-means over the sigma-scaled, unit-normalized rows of
//           V_k (the document coordinates the cosine modes compare against):
//           k-means++ seeding, a bounded number of Lloyd iterations over a
//           deterministic training subsample, then one parallel assignment
//           pass over all n documents. Per centroid: a posting list of local
//           doc ids plus a row-major copy of those documents' raw V_k rows,
//           so the query-time scan is cache-sequential (V itself is
//           column-major; gathering scattered rows from it would stride by n).
//
//   query   score the C centroids (O(C*k)), take the `nprobe` best, scan only
//           their posting lists and re-rank survivors with the exact
//           Equation-6 cosine — the same accumulation order, the same skip of
//           zero weights, the same normalization as the exact sweep, so with
//           nprobe == num_centroids the pruned ranking is bit-identical to
//           the exact scan (asserted by tests and the serving bench).
//
// Determinism: given the same space and options, build() is bit-reproducible
// — seeding and Lloyd run on a stride-deterministic subsample with a fixed
// util::Rng seed, accumulation orders are fixed, parallel assignment writes
// disjoint slots, and every tie (centroid scores, empty-cluster reseeds)
// breaks toward the lower index. An IndexSnapshot therefore has exactly one
// possible AnnIndex, like its prewarmed norm caches.
//
// Maintenance (ConcurrentIndexer runs it at publish): fold-ins append rows
// to V and leave existing rows untouched, so extend() assigns only the new
// rows to the existing centroids. A consolidation (the Section 4 SVD-update)
// moves every old document's sigma-scaled row x to x M by one k x k map M
// (lsi/update.hpp), so rotate() maps the centroids by the same M, keeps the
// old documents' posting lists and assigns only the re-projected rows. It
// falls back to a from-scratch build by the fixed rules below, so replicas
// fed the same document sequence rebuild at the same document counts.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "la/dense.hpp"
#include "lsi/search_options.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/status.hpp"

namespace lsi::core {

struct AnnOptions {
  /// Master switch: false never builds a structure (exact scan everywhere).
  bool enabled = true;
  /// Centroid count C; 0 derives ceil(sqrt(n)) (clamped to [1, n]).
  index_t num_centroids = 0;
  /// Lloyd iteration bound after k-means++ seeding (small on purpose: the
  /// structure only prunes candidates, exactness comes from the re-rank).
  std::size_t max_iterations = 6;
  /// k-means trains on at most this many documents (stride-sampled
  /// deterministically); the final assignment pass always covers all n.
  index_t training_sample = 65536;
  /// Corpora below this many documents never build a structure — the exact
  /// scan is already fast and the centroid overhead would not pay for
  /// itself. The serving layers fall back to exact scan when absent.
  index_t exact_cutoff = 4096;
  /// Seed for k-means++ sampling (part of the determinism contract).
  std::uint64_t seed = 0xC105731DULL;

  /// First violation found, or OK (checked by ShardingOptions::Validate).
  Status Validate() const;
};

/// rotate() rebuilds from scratch once the space holds this many times the
/// documents of the last build, so an automatic centroid count keeps
/// tracking ceil(sqrt(n)).
inline constexpr double kRebuildGrowth = 2.0;
/// rotate() rebuilds from scratch when max|M^T M - I| of the update's map
/// exceeds this: the exact update's M can swap an old direction for a new
/// one, and cosines to the carried centroids then change. The projection
/// update's M is orthogonal to rounding and never gets near it.
inline constexpr double kRotationTolerance = 1e-2;
/// rotate() rebuilds from scratch when the mean cosine of the documents to
/// their own centroid falls more than this below its value at the last
/// build: the stream brought documents the centroids do not describe.
inline constexpr double kFitTolerance = 1e-2;

/// Immutable cluster-pruning structure over one SemanticSpace, owned by the
/// IndexSnapshot that published it (shared_ptr, like the space itself).
/// Thread-safe by immutability.
class AnnIndex {
 public:
  /// Builds the structure, or returns null when it should not exist:
  /// options disabled, fewer than exact_cutoff documents, or a degenerate
  /// space (no documents / no factors). Deterministic given (space, opts).
  static std::shared_ptr<const AnnIndex> build(const SemanticSpace& space,
                                               const AnnOptions& opts,
                                               std::uint64_t generation);

  /// Append-only maintenance after fold-ins: assigns rows
  /// [num_docs(), space.num_docs()) to the existing centroids and returns a
  /// new structure covering all of `space`. Existing documents keep their
  /// assignments (centroids are not re-trained — the exactness of results
  /// never depends on assignment quality, only recall does). Only valid for
  /// mutations that appended rows and left existing rows and sigma
  /// untouched; a consolidation goes through rotate(). The build generation
  /// is carried over: the partition itself is unchanged.
  std::shared_ptr<const AnnIndex> extend(const SemanticSpace& space) const;

  /// Maintenance after a consolidation: `space` is this structure's space
  /// after an SVD-update that took the sigma-scaled row x of each of its
  /// first `kept` documents to x `map` (k x k, lsi/update.hpp) and gave
  /// every later row new coordinates. Maps each unit centroid c to
  /// map^T c renormalized, keeps the posting lists of documents below
  /// `kept`, assigns the rest to the nearest rotated centroid and repacks
  /// the rows from the new V: O(C k^2 + (n - kept) C k + n k) in place of
  /// k-means. The build generation is carried over.
  ///
  /// Returns build(space, options(), generation) instead when the space
  /// holds kRebuildGrowth times the documents of the last build, when `map`
  /// is further than kRotationTolerance from orthogonal, when the last
  /// build ran over more than `kept` documents (it then saw fold-ins whose
  /// place in the publish sequence depends on batch boundaries), or when
  /// the rotated partition's mean_fit() has fallen kFitTolerance below the
  /// last build's. Each rule reads only the space and the document counts,
  /// so replicas fed the same documents rebuild at the same consolidation.
  std::shared_ptr<const AnnIndex> rotate(const SemanticSpace& space,
                                         const la::DenseMatrix& map,
                                         index_t kept,
                                         std::uint64_t generation) const;

  index_t num_centroids() const noexcept { return offsets_.empty() ? 0 : static_cast<index_t>(offsets_.size() - 1); }
  index_t num_docs() const noexcept { return num_docs_; }
  index_t k() const noexcept { return k_; }
  /// Publish generation of the last from-scratch build; extend() and
  /// rotate() carry it over.
  std::uint64_t build_generation() const noexcept { return generation_; }
  const AnnOptions& options() const noexcept { return opts_; }
  /// The unit centroids, one per column (k x C).
  const la::DenseMatrix& centroids() const noexcept { return centroids_; }

  /// The nprobe a request resolves to against this structure: an explicit
  /// opts.nprobe clamped to [1, C], else the recall_target mapping
  /// (docs/ANN.md) — monotone non-decreasing in the target, and exactly C at
  /// target 1.0, so "perfect recall requested" degenerates to the exact scan.
  index_t resolve_nprobe(const SearchOptions& opts) const noexcept;

  /// Top-`nprobe` centroids for a query, by descending dot product of the
  /// unit centroids with `query_coords` (the mode's query-side coordinates
  /// q', length k), ties toward the lower centroid id. The returned sets are
  /// nested as nprobe grows — the property behind monotone recall.
  void select_clusters(std::span<const double> query_coords, index_t nprobe,
                       std::vector<index_t>& out) const;

  /// Local doc ids of centroid c's posting list (ascending).
  std::span<const index_t> cluster_docs(index_t c) const {
    return {docs_.data() + offsets_[c], offsets_[c + 1] - offsets_[c]};
  }
  /// Row-major raw V_k rows of the same documents, in posting-list order
  /// (cluster_rows(c)[t * k() + i] == V(cluster_docs(c)[t], i), bit-exact
  /// copies so the pruned re-rank reproduces the exact sweep).
  std::span<const double> cluster_rows(index_t c) const {
    return {rows_.data() + offsets_[c] * k_,
            (offsets_[c + 1] - offsets_[c]) * k_};
  }

  /// True when the structure also packed bf16 rows (built/extended over a
  /// space with compression enabled).
  bool has_bf16() const noexcept { return !rows16_.empty(); }
  /// Row-major bf16 rows in posting-list order, copied verbatim from the
  /// space's Bf16DocStore — the same encoded words the exact bf16 sweep
  /// streams, so the pruned re-rank decodes identical values. Empty when
  /// has_bf16() is false.
  std::span<const std::uint16_t> cluster_rows_bf16(index_t c) const {
    return {rows16_.data() + offsets_[c] * k_,
            (offsets_[c + 1] - offsets_[c]) * k_};
  }

 private:
  AnnIndex() = default;

  /// Mean cosine of each document's sigma-scaled row to its own centroid,
  /// over the documents with a nonzero row, in posting order.
  double mean_fit(std::span<const double> sigma) const;

  /// Shared by build/extend/rotate: regroups `assign` (doc -> centroid) into
  /// the CSR posting lists + packed row copies.
  void regroup(const SemanticSpace& space, const std::vector<index_t>& assign);

  AnnOptions opts_;
  index_t k_ = 0;
  index_t num_docs_ = 0;
  std::uint64_t generation_ = 0;
  index_t built_docs_ = 0;  ///< documents at the last from-scratch build
  double built_fit_ = 0.0;  ///< mean_fit() right after that build
  la::DenseMatrix centroids_;     ///< k x C, unit columns
  std::vector<index_t> offsets_;  ///< C + 1 CSR offsets into docs_/rows_
  std::vector<index_t> docs_;     ///< local doc ids grouped by centroid
  std::vector<double> rows_;      ///< packed raw V_k rows, posting order
  /// Packed bf16 rows (posting order), present iff the space carried a
  /// compressed store at build/extend time.
  std::vector<std::uint16_t> rows16_;
};

}  // namespace lsi::core
