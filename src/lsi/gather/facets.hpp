#pragma once
// Per-query facet / term-suggestion lists from the top-z semantic
// neighborhood (docs/GATHER.md).
//
// The latent space already encodes which terms co-occur with the returned
// documents, so facets fall out of the factors directly: take the centroid
// of the top hits' scaled document coordinates (sigma .* v_row) inside ONE
// shard's latent space, then score every vocabulary term by the cosine of
// its scaled term coordinates (sigma .* u_i) against that centroid. Terms
// that score high are the ones the SVD places next to the result set —
// query refinements the user never typed (the paper's "intelligent" access:
// suggestions come from co-occurrence structure, not string overlap).
//
// Like dedup, cross-shard comparison happens on term STRINGS: each shard
// produces facets in its own basis, and the gather merges them by term,
// keeping the best weight seen for each. All orderings break ties
// alphabetically so the merged list is deterministic.
//
// Cost (docs/GATHER.md §4): one call scores all m terms with a single
// column-major sweep of U (O(m k)), divides by the per-term norms
// ||sigma .* u_i|| that SemanticSpace::term_norms() caches per consolidation,
// selects the winners with nth_element and builds strings only for them.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "la/dense.hpp"
#include "text/vocabulary.hpp"

namespace lsi::gather {

struct Facet {
  std::string term;
  double weight = 0.0;  ///< cosine of the term against the hit centroid
};

/// ||sigma .* u_i|| for every term row i of u (la::norm2 of the scaled
/// row, factors f < min(u.cols(), |sigma|)): the denominators of
/// shard_facets' cosines.
std::vector<double> term_norms(const lsi::la::DenseMatrix& u,
                               const std::vector<double>& sigma);

/// Facets from one shard: centroid of (sigma .* v_row) over `doc_rows`
/// (LOCAL row indices into v), every term i scored by
/// cos(sigma .* u_i, centroid), top `top_terms` kept (weight descending,
/// term ascending). Empty when doc_rows is empty or the centroid is zero.
/// `norms` must be term_norms(u, sigma); every weight is bit-identical to
/// la::cosine(sigma .* u_i, centroid).
std::vector<Facet> shard_facets(const lsi::la::DenseMatrix& u,
                                const std::vector<double>& sigma,
                                const lsi::la::DenseMatrix& v,
                                const text::Vocabulary& vocabulary,
                                const std::vector<lsi::la::index_t>& doc_rows,
                                std::size_t top_terms,
                                std::span<const double> norms);

/// The same facets, computing term_norms(u, sigma) for this one call.
std::vector<Facet> shard_facets(const lsi::la::DenseMatrix& u,
                                const std::vector<double>& sigma,
                                const lsi::la::DenseMatrix& v,
                                const text::Vocabulary& vocabulary,
                                const std::vector<lsi::la::index_t>& doc_rows,
                                std::size_t top_terms);

/// Merges per-shard facet lists by term string, keeping each term's maximum
/// weight, and returns the top `top` (weight descending, term ascending).
std::vector<Facet> merge_facets(const std::vector<std::vector<Facet>>& lists,
                                std::size_t top);

}  // namespace lsi::gather
