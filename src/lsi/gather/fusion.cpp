#include "lsi/gather/fusion.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace lsi::gather {

bool parse_merge_policy(std::string_view name, MergePolicy& out) {
  if (name == "cosine" || name == "raw") {
    out = MergePolicy::kRawCosine;
    return true;
  }
  if (name == "zscore" || name == "znorm") {
    out = MergePolicy::kZScore;
    return true;
  }
  if (name == "rrf") {
    out = MergePolicy::kRRF;
    return true;
  }
  return false;
}

std::vector<FusedHit> fuse(const std::vector<ShardList>& per_shard,
                           const FusionOptions& opts, std::size_t top_z) {
  std::size_t total = 0;
  for (const ShardList& list : per_shard) total += list.docs.size();
  std::vector<FusedHit> fused;
  fused.reserve(total);

  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const ShardList& list = per_shard[s];
    // Per-shard normalization state (kZScore): mean and population standard
    // deviation of THIS query's scores in THIS shard. Preferred source is
    // the shard's full-sweep background moments (bg_*, see ShardList) — the
    // statistic metasearch normalization calls for; when a caller only has
    // the truncated lists the list's own moments are the fallback.
    double mean = 0.0, sd = 0.0;
    if (opts.policy == MergePolicy::kZScore) {
      if (list.bg_count > 0) {
        mean = list.bg_mean;
        sd = list.bg_stdev;
      } else if (!list.cosines.empty()) {
        for (double c : list.cosines) mean += c;
        mean /= static_cast<double>(list.cosines.size());
        double var = 0.0;
        for (double c : list.cosines) var += (c - mean) * (c - mean);
        var /= static_cast<double>(list.cosines.size());
        sd = std::sqrt(var);
      }
    }
    for (std::size_t r = 0; r < list.docs.size(); ++r) {
      FusedHit hit;
      hit.doc = list.docs[r];
      hit.cosine = list.cosines[r];
      hit.shard = s;
      hit.rank = r;
      switch (opts.policy) {
        case MergePolicy::kRawCosine:
          hit.score = hit.cosine;
          break;
        case MergePolicy::kZScore:
          // A constant list carries no ordering information beyond rank;
          // 0 is the neutral standardized score.
          hit.score = sd > 0.0 ? (hit.cosine - mean) / sd : 0.0;
          break;
        case MergePolicy::kRRF:
          hit.score = 1.0 / (opts.rrf_k + static_cast<double>(r + 1));
          break;
      }
      fused.push_back(hit);
    }
  }

  std::sort(fused.begin(), fused.end(), fused_before);
  if (top_z > 0 && fused.size() > top_z) fused.resize(top_z);
  obs::count("gather.fused_hits", fused.size());
  return fused;
}

}  // namespace lsi::gather
