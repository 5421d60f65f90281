#pragma once
// Near-duplicate collapse at the gather (docs/GATHER.md).
//
// A sharded collection routinely holds near-identical documents on
// DIFFERENT shards (wire copies, re-ingested revisions), and the gather is
// the first place the copies meet — so it is the natural (and only) place
// to collapse them into one representative hit plus a `duplicates` list.
//
// Hits from different shards cannot be compared in k-space: each shard's
// latent coordinates live in its own SVD basis. What the shards DO share is
// the surface vocabulary, so each candidate hit is reconstructed back into
// term space — row j of the rank-k approximation A_k = U (sigma .* v_j) —
// truncated to its strongest terms and compared as a sparse term-string
// vector. Two hits whose reconstructed term profiles agree above the
// threshold are the same document for ranking purposes regardless of which
// shard, vocabulary row order, or latent basis each came from.
//
// Collapse is greedy in fused rank order and therefore deterministic: walk
// the fused list best-first; each hit joins the FIRST already-chosen
// representative it matches, else becomes a representative itself. The
// representative of a group is always its best-ranked member, so collapsing
// never reorders survivors.
//
// Cost (docs/GATHER.md §3): one profile is an m x k reconstruction plus an
// O(m) top-`top_terms` selection, with strings built only for the winners.
// A profile depends only on U, sigma and the document's V row, and fold-in
// only appends V rows, so a snapshot's ProfileCache keeps each row's profile
// from one consolidation to the next; a rich gather then pays one lookup per
// hit it has seen before.

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "lsi/gather/fusion.hpp"
#include "text/vocabulary.hpp"

namespace lsi::gather {

/// A reconstructed document profile: (term, weight) pairs sorted by term so
/// two profiles from different shards merge-join in linear time.
using SparseTermVector = std::vector<std::pair<std::string, double>>;

/// Terms kept per profile on the read path (and in every ProfileCache).
inline constexpr std::size_t kProfileTerms = 64;

/// Reconstructs the term-space profiles of documents `doc_rows` (LOCAL rows
/// of one shard's v) from its truncated SVD: U * (sigma .* v_row), keeping
/// the `top_terms` entries of largest magnitude (0 = all). Ties in magnitude
/// break alphabetically, so the truncation is deterministic. The rows are
/// reconstructed together, one U column at a time; each profile entry still
/// accumulates its k products in factor order, so every profile is
/// bit-identical to reconstructing its row alone.
std::vector<SparseTermVector> reconstruct_term_profiles(
    const lsi::la::DenseMatrix& u, const std::vector<double>& sigma,
    const lsi::la::DenseMatrix& v, std::span<const index_t> doc_rows,
    const text::Vocabulary& vocabulary, std::size_t top_terms = kProfileTerms);

/// One document's profile: reconstruct_term_profiles over {doc_row}.
SparseTermVector reconstruct_term_profile(const lsi::la::DenseMatrix& u,
                                          const std::vector<double>& sigma,
                                          const lsi::la::DenseMatrix& v,
                                          index_t doc_row,
                                          const text::Vocabulary& vocabulary,
                                          std::size_t top_terms = kProfileTerms);

/// Lazily filled, thread-safe map from a shard-local document row to its
/// immutable kProfileTerms profile. It is only valid for the U, sigma and V
/// rows it was filled from: ConcurrentIndexer hands one cache to every
/// snapshot between two consolidations (fold-ins only append V rows) and
/// starts a new one when a consolidation rotates the basis. It holds at most
/// one profile per row.
class ProfileCache {
 public:
  using Profile = std::shared_ptr<const SparseTermVector>;

  /// Profiles cached so far.
  std::size_t size() const;

 private:
  friend std::vector<Profile> term_profiles(ProfileCache*,
                                            const lsi::la::DenseMatrix&,
                                            const std::vector<double>&,
                                            const lsi::la::DenseMatrix&,
                                            std::span<const index_t>,
                                            const text::Vocabulary&);

  mutable std::mutex mu_;
  std::unordered_map<index_t, Profile> by_row_;
};

/// The kProfileTerms profiles of `doc_rows` (parallel to it): read from
/// `cache` where present, the rest reconstructed in one
/// reconstruct_term_profiles batch and inserted. A null cache reconstructs
/// every row. Counts gather.profile_cache.hits / .misses when cached.
std::vector<ProfileCache::Profile> term_profiles(
    ProfileCache* cache, const lsi::la::DenseMatrix& u,
    const std::vector<double>& sigma, const lsi::la::DenseMatrix& v,
    std::span<const index_t> doc_rows, const text::Vocabulary& vocabulary);

/// Sum of a profile's squared weights, accumulated in its term order.
double squared_norm(const SparseTermVector& a);

/// Cosine between two sorted sparse term vectors given their squared_norm()s
/// (0 when either is empty). Bit-identical to sparse_cosine(a, b).
double sparse_cosine(const SparseTermVector& a, const SparseTermVector& b,
                     double a_sq_norm, double b_sq_norm);

/// Cosine between two sorted sparse term vectors (0 when either is empty).
double sparse_cosine(const SparseTermVector& a, const SparseTermVector& b);

/// One collapsed result: the representative (best-ranked member) and the
/// global ids of the hits folded into it, in fused rank order.
struct CollapsedHit {
  FusedHit rep;
  std::vector<index_t> duplicates;
};

/// Greedy best-first collapse of `fused` (already in fused order) using the
/// parallel `profiles` array (profiles[i] describes fused[i]). Hits whose
/// profile cosine against a representative is >= `threshold` fold into it.
/// A threshold outside (0, 1] collapses nothing (every hit survives). Each
/// profile's norm is computed once, not once per comparison.
std::vector<CollapsedHit> collapse_near_duplicates(
    const std::vector<FusedHit>& fused,
    std::span<const SparseTermVector* const> profiles, double threshold);

/// The same collapse over profiles held by value.
std::vector<CollapsedHit> collapse_near_duplicates(
    const std::vector<FusedHit>& fused,
    const std::vector<SparseTermVector>& profiles, double threshold);

}  // namespace lsi::gather
