#include "lsi/gather/dedup.hpp"

#include <algorithm>
#include <cmath>

#include "la/kernels.hpp"
#include "obs/trace.hpp"

namespace lsi::gather {

std::vector<SparseTermVector> reconstruct_term_profiles(
    const lsi::la::DenseMatrix& u, const std::vector<double>& sigma,
    const lsi::la::BlockedMatrix& v, std::span<const index_t> doc_rows,
    const text::Vocabulary& vocabulary, std::size_t top_terms) {
  // Row r of A_k = U S V^T: U * (sigma .* v_r). The sigma scaling matters —
  // without it every factor contributes equally and the profile stops
  // resembling the document's actual term distribution.
  const std::size_t m = u.rows();
  const std::size_t h = doc_rows.size();
  std::vector<lsi::la::Vector> coords;
  coords.reserve(h);
  for (index_t row : doc_rows) {
    lsi::la::Vector c = v.row(row);
    for (std::size_t f = 0; f < c.size() && f < sigma.size(); ++f) {
      c[f] *= sigma[f];
    }
    coords.push_back(std::move(c));
  }
  // Every profile entry gains coords[j][f] * U(i, f) in factor order and
  // skips zero coefficients, exactly like la::multiply(u, coords[j]), so its
  // bits do not depend on which other rows share the batch. Profiles go in
  // tiles of four that share each load of U (axpy4 is bit-identical to four
  // axpys, docs/KERNELS.md), over row blocks whose outputs stay in cache.
  constexpr std::size_t kRowBlock = 512;
  const lsi::la::kern::Ops& ops = lsi::la::kern::active();
  std::vector<double> values(h * m, 0.0);
  for (std::size_t j0 = 0; j0 < h; j0 += 4) {
    const std::size_t tile = std::min<std::size_t>(4, h - j0);
    for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
      const std::size_t len = std::min(kRowBlock, m - i0);
      double* y[4] = {};
      for (std::size_t t = 0; t < tile; ++t) {
        y[t] = values.data() + (j0 + t) * m + i0;
      }
      for (index_t f = 0; f < u.cols(); ++f) {
        const double* x = u.col(f).data() + i0;
        double a4[4] = {};
        bool all_nonzero = tile == 4;
        for (std::size_t t = 0; t < tile; ++t) {
          a4[t] = coords[j0 + t][f];
          all_nonzero = all_nonzero && a4[t] != 0.0;
        }
        if (all_nonzero) {
          ops.axpy4(a4, x, y[0], y[1], y[2], y[3], len);
          continue;
        }
        for (std::size_t t = 0; t < tile; ++t) {
          if (a4[t] != 0.0) ops.axpy(a4[t], x, y[t], len);
        }
      }
    }
  }

  std::vector<SparseTermVector> out(h);
  std::vector<index_t> order;
  for (std::size_t j = 0; j < h; ++j) {
    const double* profile = values.data() + j * m;
    order.clear();
    for (index_t i = 0; i < m; ++i) {
      if (profile[i] != 0.0) order.push_back(i);
    }
    // Magnitude descending; ties alphabetically so truncation is one order.
    // The comparator is a total order, so the selected set is the prefix a
    // full sort would keep.
    if (top_terms > 0 && order.size() > top_terms) {
      std::nth_element(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top_terms),
          order.end(), [&](index_t a, index_t b) {
            const double ma = std::fabs(profile[a]), mb = std::fabs(profile[b]);
            if (ma != mb) return ma > mb;
            return vocabulary.term(a) < vocabulary.term(b);
          });
      order.resize(top_terms);
    }
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return vocabulary.term(a) < vocabulary.term(b);
    });
    out[j].reserve(order.size());
    for (index_t i : order) out[j].emplace_back(vocabulary.term(i), profile[i]);
  }
  return out;
}

SparseTermVector reconstruct_term_profile(const lsi::la::DenseMatrix& u,
                                          const std::vector<double>& sigma,
                                          const lsi::la::BlockedMatrix& v,
                                          index_t doc_row,
                                          const text::Vocabulary& vocabulary,
                                          std::size_t top_terms) {
  return std::move(reconstruct_term_profiles(u, sigma, v, {&doc_row, 1},
                                             vocabulary, top_terms)
                       .front());
}

std::size_t ProfileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_row_.size();
}

std::vector<ProfileCache::Profile> term_profiles(
    ProfileCache* cache, const lsi::la::DenseMatrix& u,
    const std::vector<double>& sigma, const lsi::la::BlockedMatrix& v,
    std::span<const index_t> doc_rows, const text::Vocabulary& vocabulary) {
  std::vector<ProfileCache::Profile> out(doc_rows.size());
  std::vector<std::size_t> miss_at;  // positions in doc_rows to reconstruct
  if (cache != nullptr) {
    std::lock_guard<std::mutex> lock(cache->mu_);
    for (std::size_t j = 0; j < doc_rows.size(); ++j) {
      const auto it = cache->by_row_.find(doc_rows[j]);
      if (it != cache->by_row_.end()) {
        out[j] = it->second;
      } else {
        miss_at.push_back(j);
      }
    }
  } else {
    for (std::size_t j = 0; j < doc_rows.size(); ++j) miss_at.push_back(j);
  }

  // Reconstruct outside the lock: readers of other rows never wait on it.
  std::vector<index_t> miss_rows;
  miss_rows.reserve(miss_at.size());
  for (std::size_t j : miss_at) miss_rows.push_back(doc_rows[j]);
  std::vector<SparseTermVector> built = reconstruct_term_profiles(
      u, sigma, v, miss_rows, vocabulary, kProfileTerms);
  for (std::size_t j = 0; j < built.size(); ++j) {
    out[miss_at[j]] =
        std::make_shared<const SparseTermVector>(std::move(built[j]));
  }
  if (cache == nullptr) return out;
  if (!miss_at.empty()) {
    std::lock_guard<std::mutex> lock(cache->mu_);
    for (std::size_t j : miss_at) {
      // A concurrent reader may have inserted the same row meanwhile; its
      // profile has the same bits, and keeping the first keeps one copy.
      const auto [it, inserted] = cache->by_row_.emplace(doc_rows[j], out[j]);
      if (!inserted) out[j] = it->second;
    }
  }
  obs::count("gather.profile_cache.hits", doc_rows.size() - miss_at.size());
  obs::count("gather.profile_cache.misses", miss_at.size());
  return out;
}

double squared_norm(const SparseTermVector& a) {
  double n = 0.0;
  for (const auto& [term, w] : a) n += w * w;
  return n;
}

double sparse_cosine(const SparseTermVector& a, const SparseTermVector& b,
                     double a_sq_norm, double b_sq_norm) {
  if (a_sq_norm <= 0.0 || b_sq_norm <= 0.0) return 0.0;
  double dot = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].first.compare(b[j].first);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      dot += a[i].second * b[j].second;
      ++i;
      ++j;
    }
  }
  return dot / (std::sqrt(a_sq_norm) * std::sqrt(b_sq_norm));
}

double sparse_cosine(const SparseTermVector& a, const SparseTermVector& b) {
  return sparse_cosine(a, b, squared_norm(a), squared_norm(b));
}

std::vector<CollapsedHit> collapse_near_duplicates(
    const std::vector<FusedHit>& fused,
    std::span<const SparseTermVector* const> profiles, double threshold) {
  std::vector<CollapsedHit> out;
  out.reserve(fused.size());
  const bool active = threshold > 0.0 && threshold <= 1.0;
  std::vector<double> sq_norms;
  if (active) {
    sq_norms.reserve(fused.size());
    for (std::size_t h = 0; h < fused.size(); ++h) {
      sq_norms.push_back(squared_norm(*profiles[h]));
    }
  }
  std::vector<std::size_t> rep_index;  // fused index of each representative
  std::size_t collapsed = 0;
  for (std::size_t h = 0; h < fused.size(); ++h) {
    bool joined = false;
    if (active) {
      for (std::size_t r = 0; r < rep_index.size(); ++r) {
        const std::size_t g = rep_index[r];
        if (sparse_cosine(*profiles[h], *profiles[g], sq_norms[h],
                          sq_norms[g]) >= threshold) {
          out[r].duplicates.push_back(fused[h].doc);
          joined = true;
          ++collapsed;
          break;
        }
      }
    }
    if (!joined) {
      rep_index.push_back(h);
      out.push_back(CollapsedHit{fused[h], {}});
    }
  }
  if (collapsed > 0) obs::count("gather.collapsed_hits", collapsed);
  return out;
}

std::vector<CollapsedHit> collapse_near_duplicates(
    const std::vector<FusedHit>& fused,
    const std::vector<SparseTermVector>& profiles, double threshold) {
  std::vector<const SparseTermVector*> ptrs;
  ptrs.reserve(profiles.size());
  for (const SparseTermVector& p : profiles) ptrs.push_back(&p);
  return collapse_near_duplicates(fused, ptrs, threshold);
}

}  // namespace lsi::gather
