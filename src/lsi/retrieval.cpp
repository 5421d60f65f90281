#include "lsi/retrieval.hpp"

#include <algorithm>
#include <cassert>

#include "lsi/batched_retrieval.hpp"
#include "lsi/ranking.hpp"

namespace lsi::core {

namespace {

/// Applies S^{-1} entrywise; zero singular values map to zero (pseudo-
/// inverse semantics, so rank-deficient spaces behave).
void scale_by_sigma_inverse(la::Vector& x, const std::vector<double>& sigma) {
  for (index_t i = 0; i < x.size(); ++i) {
    x[i] = sigma[i] > 0.0 ? x[i] / sigma[i] : 0.0;
  }
}

}  // namespace

void project_sparse(const SemanticSpace& space, std::span<const index_t> rows,
                    std::span<const double> values, std::span<double> out) {
  la::multiply_transpose(space.u, rows, values, out);
  for (index_t i = 0; i < space.k(); ++i) {
    out[i] = space.sigma[i] > 0.0 ? out[i] / space.sigma[i] : 0.0;
  }
}

la::Vector project_query(const SemanticSpace& space,
                         const la::SparseVector& terms) {
  la::Vector q_hat(space.k());
  project_sparse(space, terms.rows, terms.values, q_hat);
  return q_hat;
}

la::Vector project_query(const SemanticSpace& space,
                         std::span<const double> term_vector) {
  assert(term_vector.size() == space.num_terms());
  return project_query(space, la::SparseVector::from_dense(term_vector));
}

la::Vector project_term(const SemanticSpace& space,
                        std::span<const double> doc_vector) {
  assert(doc_vector.size() == space.num_docs());
  la::Vector t_hat = la::multiply_transpose(space.v.to_dense(), doc_vector);
  scale_by_sigma_inverse(t_hat, space.sigma);
  return t_hat;
}

std::vector<ScoredDoc> rank_documents(const SemanticSpace& space,
                                      std::span<const double> query_khat,
                                      const SearchOptions& opts,
                                      QueryStats* stats) {
  assert(query_khat.size() == space.k());
  // Batch-size-1 wrapper over the batched engine — the one scoring path.
  const QueryBatch one = QueryBatch::from_projected(
      space, {la::Vector(query_khat.begin(), query_khat.end())});
  auto ranked = BatchedRetriever(space).rank(one, opts, stats);
  return std::move(ranked.front());
}

std::vector<ScoredDoc> retrieve(const SemanticSpace& space,
                                std::span<const double> term_vector,
                                const SearchOptions& opts,
                                QueryStats* stats) {
  // Batch-size-1 wrapper over the batched engine, projection included, so
  // streamed single queries and batched queries share every kernel.
  const QueryBatch one = QueryBatch::from_term_vectors(
      space, {la::Vector(term_vector.begin(), term_vector.end())}, stats);
  auto ranked = BatchedRetriever(space).rank(one, opts, stats);
  return std::move(ranked.front());
}

double document_similarity(const SemanticSpace& space, index_t a, index_t b) {
  const la::Vector va = space.doc_coords(a);
  const la::Vector vb = space.doc_coords(b);
  return la::cosine(va, vb);
}

double term_similarity(const SemanticSpace& space, index_t a, index_t b) {
  const la::Vector ta = space.term_coords(a);
  const la::Vector tb = space.term_coords(b);
  return la::cosine(ta, tb);
}

std::vector<ScoredDoc> rank_documents_multipoint(
    const SemanticSpace& space, const std::vector<la::Vector>& points,
    const SearchOptions& opts, MultiPointCombiner combiner) {
  std::vector<ScoredDoc> out;
  if (points.empty()) return out;

  // One sweep scores every point. scores(d, p) accumulates over the factors
  // in the same order whatever else shares the batch, so each column is
  // bit-identical to ranking that point alone.
  const la::DenseMatrix scores = BatchedRetriever(space).scores(
      QueryBatch::from_projected(space, points), opts.mode);
  for (index_t d = 0; d < space.num_docs(); ++d) {
    double combined =
        combiner == MultiPointCombiner::kMax ? -2.0 : 0.0;
    for (index_t p = 0; p < points.size(); ++p) {
      // A cosine rounded below -1 fails the -1 threshold of a per-point
      // ranking, which would not list the document: count it as 0, so the
      // combined score equals combining the per-point rankings.
      const double s = scores(d, p) >= -1.0 ? scores(d, p) : 0.0;
      if (combiner == MultiPointCombiner::kMax) {
        combined = std::max(combined, s);
      } else {
        combined += s / static_cast<double>(points.size());
      }
    }
    if (combined >= opts.min_cosine) out.push_back({d, combined});
  }
  std::stable_sort(out.begin(), out.end(), ranks_before<ScoredDoc>);
  if (opts.z > 0 && out.size() > opts.z) out.resize(opts.z);
  return out;
}

std::vector<ScoredDoc> rank_terms(const SemanticSpace& space,
                                  std::span<const double> term_coords,
                                  std::size_t top_z) {
  std::vector<ScoredDoc> out;
  out.reserve(space.num_terms());
  for (index_t i = 0; i < space.num_terms(); ++i) {
    const la::Vector t = space.term_coords(i);
    out.push_back({i, la::cosine(term_coords, t)});
  }
  std::stable_sort(out.begin(), out.end(), ranks_before<ScoredDoc>);
  if (top_z > 0 && out.size() > top_z) out.resize(top_z);
  return out;
}

}  // namespace lsi::core
