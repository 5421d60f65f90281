#pragma once
// The one total order every ranking in this library obeys: higher cosine
// first, ties broken by ascending document index. Extracted here so the
// single-query path (retrieval.cpp), the batched engine's bounded top-z heap
// and its cluster-pruned re-rank (batched_retrieval.cpp), and the sharded
// scatter-gather merger (sharding/) all sort by the *same* comparator — a
// query ranked against one shard, eight shards, or the monolithic index
// breaks equal-score ties identically, which is what makes the N = 1
// sharded configuration bit-identical to BatchedRetriever and equal-score
// orderings stable across shard counts.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace lsi::core {

/// True when `a` ranks strictly before `b`: cosine descending, then document
/// index ascending. Works on any pair of types exposing `.cosine` and `.doc`
/// (ScoredDoc, QueryResult, ...). A strict weak ordering with no equivalent
/// elements when document indices are distinct, so every sort using it has
/// exactly one result order.
template <typename A, typename B = A>
inline bool ranks_before(const A& a, const B& b) noexcept {
  if (a.cosine != b.cosine) return a.cosine > b.cosine;
  return a.doc < b.doc;
}

/// Sorts a ranking into the canonical order and truncates to `top_z`
/// (0 = unlimited).
template <typename Doc>
inline void sort_ranking(std::vector<Doc>& docs, std::size_t top_z = 0) {
  std::sort(docs.begin(), docs.end(), ranks_before<Doc, Doc>);
  if (top_z > 0 && docs.size() > top_z) docs.resize(top_z);
}

/// Gather-side merge: combines per-shard rankings (each already in canonical
/// order, with document indices already mapped into one global id space)
/// into a single canonical top-z ranking. With one input list the output is
/// the input truncated to z — the merge adds no reordering of its own, which
/// the sharded N = 1 bit-parity test relies on.
template <typename Doc>
inline std::vector<Doc> merge_rankings(
    const std::vector<std::vector<Doc>>& per_shard, std::size_t top_z = 0) {
  std::size_t total = 0;
  for (const auto& list : per_shard) total += list.size();
  std::vector<Doc> merged;
  merged.reserve(total);
  for (const auto& list : per_shard) {
    merged.insert(merged.end(), list.begin(), list.end());
  }
  sort_ranking(merged, top_z);
  return merged;
}

}  // namespace lsi::core
