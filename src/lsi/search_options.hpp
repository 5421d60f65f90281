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

#include <array>
#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "lsi/gather/fusion.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/status.hpp"

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

  bool has_deadline() const noexcept {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  bool deadline_expired() const noexcept {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline;
  }

  /// First violation found, or OK. Validated once at the outermost layer
  /// (ShardedSnapshot::search, the CLI); inner layers assert. Every
  /// floating-point knob must be finite: a NaN makes every ordered
  /// comparison false, so the range checks alone would let it through to
  /// the integer conversion in AnnIndex::resolve_nprobe, and an infinite
  /// rrf_k zeroes every RRF score.
  Status Validate() const;

  /// The gather-stage subset (merge policy + RRF constant).
  gather::FusionOptions fusion_options() const {
    gather::FusionOptions f;
    f.policy = merge;
    f.rrf_k = rrf_k;
    return f;
  }
};

/// The request knobs of GET /search (docs/SERVING.md), by wire name, in the
/// order parse_search_knobs checks them; the daemon reads each as a query
/// parameter, lsi_cli as a `--<name>` flag. The z closest documents
/// (`top`), the paging cursor and the session token are request-level, not
/// knobs. Absent knobs keep the SearchOptions member defaults.
inline constexpr std::array<std::string_view, 8> kSearchKnobs = {
    "exact",        // 0 | 1; 1 selects SearchMode::kExact
    "nprobe",       // positive integer; not with exact=1, not with recall
    "recall",       // recall_target in (0, 1]; not with exact=1
    "deadline_ms",  // positive integer <= kMaxDeadlineMs; deadline = now + it
    "merge",        // cosine | zscore | rrf
    "rrf_k",        // positive finite number
    "collapse",     // collapse_cosine in (0, 1]
    "facets",       // positive integer
};

/// Largest accepted deadline_ms: one day. Anything longer is no deadline in
/// practice, and bounding it keeps `now + deadline` far from overflowing the
/// clock's signed nanosecond count.
inline constexpr std::size_t kMaxDeadlineMs = 86'400'000;

/// Maps a knob's wire name to its raw value; empty when absent.
using KnobLookup = std::function<std::string_view(std::string_view name)>;

/// Parses every knob `lookup` supplies into `opts`. Checks the exact value
/// first, then the cross-field rules (on presence alone), then each other
/// value in kSearchKnobs order, and returns InvalidArgument with the first
/// violation's message: the daemon's 400 body, lsi_cli's error.
Status parse_search_knobs(const KnobLookup& lookup, SearchOptions& opts);

/// The search-session re-rank key: every knob's raw value except
/// deadline_ms's, so a session re-ranks when the query text or this key
/// changes (a latency budget never alters the ranking).
std::string search_knobs_key(const KnobLookup& lookup);

}  // namespace lsi::core
