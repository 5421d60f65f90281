#pragma once
// Gather-side merge policies (docs/GATHER.md): how N per-shard top-z lists
// become one global ranking.
//
// With N > 1 every shard scores queries in its own independently-estimated
// latent space, so raw cosines from different shards are measured on
// different scales — the classic metasearch problem. Three policies:
//
//   kRawCosine   concatenate and sort by raw cosine (today's gather, the
//                default — kept EXACTLY equivalent to lsi/ranking.hpp's
//                merge_rankings, so the N = 1 bit-parity contract and every
//                existing parity suite hold unmodified);
//   kZScore      standardize each shard's list to zero mean / unit variance
//                before merging — removes per-shard scale and offset, the
//                cheapest score-comparability fix (a shard list with zero
//                variance normalizes to 0, the neutral score);
//   kRRF         reciprocal-rank fusion: score(d) = 1 / (rrf_k + rank_d)
//                with rank starting at 1 in the shard's canonical order —
//                ignores scores entirely, so it is immune to any latent-
//                space scale divergence (Cormack et al.'s robust default;
//                rrf_k = 60 is the literature's standard damping).
//
// Every policy is deterministic via the shared ranking.hpp tie-order: fused
// score descending, then GLOBAL document id ascending. Per-shard inputs are
// already in canonical per-shard order (cosine desc, local id asc mapped to
// global ids), and each document lives in exactly one shard, so no
// cross-list score summation is needed — fusion is a pure re-scoring.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "la/dense.hpp"

namespace lsi::gather {

using index_t = lsi::la::index_t;

enum class MergePolicy {
  kRawCosine,  ///< concatenate + sort by raw cosine (bit-identical default)
  kZScore,     ///< per-shard z-score normalization, then sort
  kRRF,        ///< reciprocal-rank fusion 1 / (rrf_k + rank)
};

/// Returns "cosine" / "zscore" / "rrf".
constexpr std::string_view merge_policy_name(MergePolicy p) noexcept {
  switch (p) {
    case MergePolicy::kRawCosine: return "cosine";
    case MergePolicy::kZScore: return "zscore";
    case MergePolicy::kRRF: return "rrf";
  }
  return "unknown";
}

/// Parses a policy name (the /search `merge=` values); false on garbage.
bool parse_merge_policy(std::string_view name, MergePolicy& out);

struct FusionOptions {
  MergePolicy policy = MergePolicy::kRawCosine;
  /// RRF damping constant; larger values flatten the rank discount.
  double rrf_k = 60.0;
};

/// One fused hit: the fusion score the global ranking sorts by, plus the raw
/// per-shard cosine (kept for display/thresholds), the shard it came from
/// and its position in that shard's list (the dedup/facet stages need to
/// know which latent space, and which row of it, to consult).
struct FusedHit {
  index_t doc = 0;      ///< global document id
  double score = 0.0;   ///< fusion score (== cosine under kRawCosine)
  double cosine = 0.0;  ///< raw per-shard cosine
  std::size_t shard = 0;
  std::size_t rank = 0;  ///< 0-based position in per_shard[shard]
};

/// Canonical fused order: score descending, global doc id ascending — the
/// ranking.hpp comparator applied to fusion scores.
inline bool fused_before(const FusedHit& a, const FusedHit& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

/// Fuses per-shard rankings into one global list. `per_shard[s]` must be in
/// canonical per-shard order with documents already mapped to global ids;
/// `scores(s)` / `docs(s)` are read via the two parallel span-like vectors
/// below. Returns the fused list truncated to `top_z` (0 = unlimited).
///
/// Under kRawCosine the output order (and scores) are exactly what
/// lsi/ranking.hpp merge_rankings produces — callers wanting the bit-parity
/// fast path can keep calling merge_rankings directly.
struct ShardList {
  std::vector<index_t> docs;     ///< global ids, canonical shard order
  std::vector<double> cosines;   ///< matching raw cosines
  /// Background score distribution of the shard's FULL scored sweep for
  /// this query (BatchedRetriever fills these via ScoreMoments — every
  /// cosine the shard computed, not just the top-z it returned). A z-score
  /// estimated over the returned page alone is dominated by the peak of the
  /// shard's distribution; standardizing against the whole sweep measures
  /// how far a hit stands out of its shard's BACKGROUND, which is the
  /// cross-shard-comparable quantity. When bg_count == 0 (layers that only
  /// have the lists, e.g. unit fixtures) kZScore falls back to the list's
  /// own moments.
  std::size_t bg_count = 0;
  double bg_mean = 0.0;
  double bg_stdev = 0.0;         ///< population standard deviation
};

std::vector<FusedHit> fuse(const std::vector<ShardList>& per_shard,
                           const FusionOptions& opts, std::size_t top_z = 0);

}  // namespace lsi::gather
