#pragma once
// lsi::SearchOptions — the one request struct of every read path: the HTTP
// daemon, ShardedSnapshot, BatchedRetriever, LsiIndex and the free
// rank_documents/retrieve functions all take it. Validated once at the
// outermost layer (Validate(), mirroring IndexOptions).
//
// Candidate-generation policy (docs/ANN.md):
//
//   kAuto    use the snapshot's cluster-pruned AnnIndex when one exists
//            (it is only built above AnnOptions::exact_cutoff documents),
//            exact scan otherwise — the serving default;
//   kExact   always exact: every document scored, the pre-ANN behavior;
//   kPruned  require the pruned path; silently falls back to exact scan
//            when the structure is absent (small corpus, ann disabled) —
//            the fallback is counted on the "ann.exact_fallback_queries"
//            counter so operators can see it.
//
// `nprobe` versus `recall_target`: nprobe > 0 pins the number of centroid
// posting lists scanned per query; nprobe == 0 derives it from recall_target
// via AnnIndex::resolve_nprobe (monotone in the target; a target of 1.0
// probes every centroid, which is bit-identical to the exact scan).

#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>

#include "lsi/gather/fusion.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/status.hpp"
#include "obs/trace.hpp"

namespace lsi::core {

/// Candidate-generation policy for one request.
enum class SearchMode {
  kAuto,    ///< pruned when the snapshot has an AnnIndex, exact otherwise
  kExact,   ///< force the exact scan (every document scored)
  kPruned,  ///< request the pruned path (exact fallback when absent)
};

/// Returns "auto" / "exact" / "pruned".
constexpr std::string_view search_mode_name(SearchMode mode) noexcept {
  switch (mode) {
    case SearchMode::kAuto: return "auto";
    case SearchMode::kExact: return "exact";
    case SearchMode::kPruned: return "pruned";
  }
  return "unknown";
}

/// The one request struct of the read path, threaded verbatim from the HTTP
/// query string down to the per-shard BatchedRetriever. Value-semantic and
/// cheap to copy; construct, adjust fields, Validate(), go.
struct SearchOptions {
  /// Keep only the z best documents (0 = unlimited).
  std::size_t z = 0;
  /// Inner-product convention (see retrieval.hpp).
  SimilarityMode mode = SimilarityMode::kColumnSpace;
  /// Cosine threshold applied BEFORE top-z selection; -1 keeps everything.
  double min_cosine = -1.0;

  /// Candidate-generation policy (see the header comment).
  SearchMode search = SearchMode::kAuto;
  /// Centroid posting lists scanned per query on the pruned path; 0 derives
  /// the count from `recall_target`. Clamped to the centroid count — nprobe
  /// >= num_centroids scans everything and is bit-identical to exact.
  std::size_t nprobe = 0;
  /// Recall@10-vs-exact the auto-derived nprobe aims for, in (0, 1]. 1.0
  /// maps to every centroid (exact-identical); ignored when nprobe > 0.
  double recall_target = 0.95;

  /// Per-request deadline; the default (epoch) means none. Enforcement is
  /// coarse-grained at stage boundaries (before a shard's scatter pass,
  /// before scoring) via the try_* call paths, which report
  /// kDeadlineExceeded — an in-flight sweep is never interrupted.
  std::chrono::steady_clock::time_point deadline{};

  /// Gather-side merge policy for sharded reads (docs/GATHER.md). The
  /// default concatenates raw cosines and is BIT-IDENTICAL to the pre-gather
  /// merge; kZScore / kRRF re-score per-shard lists before merging.
  gather::MergePolicy merge = gather::MergePolicy::kRawCosine;
  /// RRF damping constant (only read under MergePolicy::kRRF).
  double rrf_k = 60.0;
  /// Near-duplicate collapse threshold at the gather: fused hits whose
  /// reconstructed term profiles agree with a better-ranked hit's at cosine
  /// >= this fold into it. Outside (0, 1] (the default -1) collapses
  /// nothing.
  double collapse_cosine = -1.0;
  /// Number of facet terms (query refinements from the top-z semantic
  /// neighborhood) to attach to the response; 0 disables.
  std::size_t facets = 0;

  /// When non-null, installed as the active observability sink for the
  /// duration of the call (previous sink restored on return).
  obs::Sink* sink = nullptr;

  bool has_deadline() const noexcept {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  bool deadline_expired() const noexcept {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline;
  }

  /// First violation found, or OK. Validated once at the outermost layer
  /// (the HTTP daemon answers 400 with this message); inner layers assert.
  /// Every floating-point knob must be finite: a NaN makes every ordered
  /// comparison false, so the range checks alone would let it through to
  /// the integer conversion in AnnIndex::resolve_nprobe, and an infinite
  /// rrf_k zeroes every RRF score.
  Status Validate() const {
    if (search == SearchMode::kExact && nprobe > 0) {
      return Status::InvalidArgument(
          "nprobe is meaningless with search == kExact (exact scan probes "
          "nothing); drop nprobe or use kPruned");
    }
    if (!std::isfinite(recall_target) || recall_target <= 0.0 ||
        recall_target > 1.0) {
      return Status::InvalidArgument(
          "recall_target must be in (0, 1], got " +
          std::to_string(recall_target));
    }
    if (!std::isfinite(min_cosine) || min_cosine > 1.0) {
      return Status::InvalidArgument(
          "min_cosine must be a finite value of at most 1 (above 1 filters "
          "every document), got " +
          std::to_string(min_cosine));
    }
    if (!std::isfinite(rrf_k) || rrf_k <= 0.0) {
      return Status::InvalidArgument(
          "rrf_k must be positive and finite (rank-1 score is "
          "1/(rrf_k + 1)), got " +
          std::to_string(rrf_k));
    }
    if (!std::isfinite(collapse_cosine) || collapse_cosine > 1.0) {
      return Status::InvalidArgument(
          "collapse_cosine must be finite and at most 1 (above 1 collapses "
          "nothing by construction); use a value in (0, 1] or leave it "
          "negative to disable");
    }
    return Status::Ok();
  }

  /// The gather-stage subset (merge policy + RRF constant).
  gather::FusionOptions fusion_options() const {
    gather::FusionOptions f;
    f.policy = merge;
    f.rrf_k = rrf_k;
    return f;
  }
};

}  // namespace lsi::core
