#include "lsi/gather/facets.hpp"

#include <algorithm>
#include <map>

#include "la/vector_ops.hpp"

namespace lsi::gather {

namespace {

bool facet_before(const Facet& a, const Facet& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.term < b.term;
}

}  // namespace

std::vector<double> term_norms(const lsi::la::DenseMatrix& u,
                               const std::vector<double>& sigma) {
  const std::size_t k = std::min<std::size_t>(u.cols(), sigma.size());
  std::vector<double> norms(u.rows());
  lsi::la::Vector term_coords(k, 0.0);
  for (lsi::la::index_t i = 0; i < u.rows(); ++i) {
    for (std::size_t f = 0; f < k; ++f) term_coords[f] = u(i, f) * sigma[f];
    norms[i] = lsi::la::norm2(term_coords);
  }
  return norms;
}

std::vector<Facet> shard_facets(const lsi::la::DenseMatrix& u,
                                const std::vector<double>& sigma,
                                const lsi::la::BlockedMatrix& v,
                                const text::Vocabulary& vocabulary,
                                const std::vector<lsi::la::index_t>& doc_rows,
                                std::size_t top_terms,
                                std::span<const double> norms) {
  if (doc_rows.empty() || top_terms == 0 || u.rows() == 0) return {};
  const std::size_t m = u.rows();
  const std::size_t k = std::min<std::size_t>(u.cols(), sigma.size());

  lsi::la::Vector centroid(k, 0.0);
  for (lsi::la::index_t row : doc_rows) {
    for (std::size_t f = 0; f < k; ++f) centroid[f] += v(row, f) * sigma[f];
  }
  lsi::la::scale(centroid, 1.0 / static_cast<double>(doc_rows.size()));
  const double centroid_norm = lsi::la::norm2(centroid);
  if (centroid_norm == 0.0) return {};

  // Every term's dot with the centroid in one sweep down U's columns. Term
  // i still accumulates (u(i,f) * sigma[f]) * centroid[f] in factor order,
  // the products and sums la::dot would form on the scaled row.
  std::vector<double> weight(m, 0.0);
  for (std::size_t f = 0; f < k; ++f) {
    const auto col = u.col(f);
    const double s = sigma[f], c = centroid[f];
    for (std::size_t i = 0; i < m; ++i) weight[i] += (col[i] * s) * c;
  }
  std::vector<lsi::la::index_t> order;
  for (std::size_t i = 0; i < m; ++i) {
    // la::cosine's zero-norm guard, then its division.
    weight[i] = norms[i] == 0.0 ? 0.0 : weight[i] / (norms[i] * centroid_norm);
    if (weight[i] > 0.0) order.push_back(i);
  }

  const auto before = [&](lsi::la::index_t a, lsi::la::index_t b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return vocabulary.term(a) < vocabulary.term(b);
  };
  if (order.size() > top_terms) {
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(top_terms),
                     order.end(), before);
    order.resize(top_terms);
  }
  std::sort(order.begin(), order.end(), before);
  std::vector<Facet> out;
  out.reserve(order.size());
  for (lsi::la::index_t i : order) {
    out.push_back(Facet{vocabulary.term(i), weight[i]});
  }
  return out;
}

std::vector<Facet> shard_facets(const lsi::la::DenseMatrix& u,
                                const std::vector<double>& sigma,
                                const lsi::la::BlockedMatrix& v,
                                const text::Vocabulary& vocabulary,
                                const std::vector<lsi::la::index_t>& doc_rows,
                                std::size_t top_terms) {
  return shard_facets(u, sigma, v, vocabulary, doc_rows, top_terms,
                      term_norms(u, sigma));
}

std::vector<Facet> merge_facets(const std::vector<std::vector<Facet>>& lists,
                                std::size_t top) {
  // std::map keys the merge by term string; with max-weight semantics the
  // result is independent of shard visit order.
  std::map<std::string, double> best;
  for (const std::vector<Facet>& list : lists) {
    for (const Facet& f : list) {
      auto [it, inserted] = best.emplace(f.term, f.weight);
      if (!inserted && f.weight > it->second) it->second = f.weight;
    }
  }
  std::vector<Facet> merged;
  merged.reserve(best.size());
  for (const auto& [term, weight] : best) merged.push_back(Facet{term, weight});
  std::sort(merged.begin(), merged.end(), facet_before);
  if (top > 0 && merged.size() > top) merged.resize(top);
  return merged;
}

}  // namespace lsi::gather
