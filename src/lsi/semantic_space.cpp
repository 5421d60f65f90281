#include "lsi/semantic_space.hpp"

#include <algorithm>
#include <cmath>

#include "la/golub_kahan_svd.hpp"
#include "lsi/doc_store.hpp"
#include "lsi/gather/facets.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace lsi::core {

void SemanticSpace::fill_doc_norm_range(bool scale_docs, index_t end,
                                        util::RowBlocks<double>& norms) const {
  const index_t begin = norms.rows();
  std::vector<double> fresh(end - begin);
  util::parallel_for_chunks(
      begin, end,
      [&](std::size_t lo, std::size_t hi) {
        // The scratch row is built exactly like the single-query scorer
        // builds its document vector, so the cached norm is bit-identical to
        // what la::cosine would have computed.
        la::Vector doc(k());
        for (std::size_t j = lo; j < hi; ++j) {
          const double* row = &v(j, 0);
          for (index_t i = 0; i < k(); ++i) {
            doc[i] = row[i * util::kBlockStride];
            if (scale_docs) doc[i] *= sigma[i];
          }
          fresh[j - begin] = la::norm2(doc);
        }
      },
      /*grain=*/256);
  norms.append(fresh.size(),
               [&](std::size_t j, std::size_t) { return fresh[j]; });
}

const util::RowBlocks<double>& SemanticSpace::doc_norms(
    SimilarityMode mode) const {
  const std::size_t slot = doc_norm_slot(mode);
  auto& cache = doc_norm_cache_[slot];
  // Row-count mismatch means documents were appended (folding) since the
  // cache was built; same-size mutation must call invalidate_doc_norms().
  if (cache.rows() == num_docs()) {
    obs::count("retrieval.norm_cache.hit");
    return cache;
  }
  obs::count("retrieval.norm_cache.miss");
  LSI_OBS_SPAN(span, "retrieval.norm_cache.fill");
  cache = util::RowBlocks<double>(1);
  fill_doc_norm_range(slot == 0, num_docs(), cache);
  return cache;
}

const std::vector<double>& SemanticSpace::term_norms() const {
  if (term_norm_cache_ == nullptr || term_norm_cache_->size() != num_terms()) {
    term_norm_cache_ = std::make_shared<const std::vector<double>>(
        gather::term_norms(u, sigma));
  }
  return *term_norm_cache_;
}

void SemanticSpace::invalidate_doc_norms() noexcept {
  for (auto& cache : doc_norm_cache_) cache = {};
  term_norm_cache_.reset();
  bf16_store_.reset();  // the flag survives; the store rebuilds lazily
}

void SemanticSpace::prewarm_doc_norms() const {
  for (std::size_t m = 0; m < kNumSimilarityModes; ++m) {
    (void)doc_norms(static_cast<SimilarityMode>(m));
  }
  (void)term_norms();
  (void)compressed_docs();  // no-op unless compression is enabled
}

void SemanticSpace::extend_doc_norms(index_t old_num_docs) const {
  for (std::size_t slot = 0; slot < kNumDocNormVectors; ++slot) {
    auto& cache = doc_norm_cache_[slot];
    if (cache.empty()) continue;  // cold stays cold, lazy fill handles it
    if (cache.rows() != old_num_docs || old_num_docs > num_docs()) {
      // Cache does not correspond to the pre-append row count (or the
      // "append" shrank V): length-stale, drop it.
      cache = {};
      continue;
    }
    obs::count("retrieval.norm_cache.extend", num_docs() - old_num_docs);
    fill_doc_norm_range(slot == 0, num_docs(), cache);
  }
  if (bf16_store_) {
    // Same append-only contract as the norm caches: a store built at the
    // pre-append row count is extended in O(p k); anything else is
    // length-stale and rebuilds lazily on next use.
    if (bf16_store_->num_docs() == old_num_docs && old_num_docs <= num_docs()) {
      bf16_store_ = Bf16DocStore::extend(*bf16_store_, *this);
    } else if (bf16_store_->num_docs() != num_docs()) {
      bf16_store_.reset();
    }
  }
}

void SemanticSpace::set_compress_docs(bool on) {
  compress_docs_ = on;
  if (!on) bf16_store_.reset();
}

const Bf16DocStore* SemanticSpace::compressed_docs() const {
  if (!compress_docs_) return nullptr;
  // Same row-count staleness guard as doc_norms(): appended documents make
  // the store stale; same-size mutations must call invalidate_doc_norms().
  if (!bf16_store_ || bf16_store_->num_docs() != num_docs() ||
      bf16_store_->k() != k()) {
    bf16_store_ = Bf16DocStore::build(*this);
  }
  return bf16_store_.get();
}

void SemanticSpace::adopt_compressed_docs(
    std::shared_ptr<const Bf16DocStore> store) {
  compress_docs_ = true;
  bf16_store_ = std::move(store);
}

la::Vector SemanticSpace::doc_coords(index_t j) const {
  la::Vector coords = v.row(j);
  for (index_t i = 0; i < coords.size(); ++i) coords[i] *= sigma[i];
  return coords;
}

la::Vector SemanticSpace::term_coords(index_t i) const {
  la::Vector coords = u.row(i);
  for (index_t d = 0; d < coords.size(); ++d) coords[d] *= sigma[d];
  return coords;
}

la::DenseMatrix SemanticSpace::reconstruct() const {
  return la::multiply_a_bt(la::scale_cols(u, sigma.get()), v.to_dense());
}

Expected<SemanticSpace> try_build_semantic_space(const la::CscMatrix& a,
                                                 index_t k,
                                                 const BuildOptions& opts,
                                                 la::LanczosStats* stats) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument(
        "try_build_semantic_space: empty term-document matrix (" +
        std::to_string(a.rows()) + " x " + std::to_string(a.cols()) + ")");
  }
  if (k == 0) {
    return Status::InvalidArgument(
        "try_build_semantic_space: k must be at least 1");
  }
  LSI_OBS_SPAN(span, "build.svd");
  const index_t minmn = std::min(a.rows(), a.cols());
  k = std::min(k, minmn);

  la::SvdResult svd;
  if (minmn <= opts.dense_cutoff) {
    svd = la::golub_kahan_svd(a.to_dense());
    svd.truncate(k);
    if (stats) *stats = la::LanczosStats{};
  } else {
    la::LanczosOptions lopts = opts.lanczos;
    lopts.k = k;
    try {
      svd = la::lanczos_svd(a, lopts, stats);
    } catch (const std::exception& e) {
      return Status::Internal(e.what());
    }
  }

  SemanticSpace space;
  space.u = std::move(svd.u);
  space.sigma = std::move(svd.s);
  space.v = std::move(svd.v);
  return space;
}

void align_signs_to(SemanticSpace& space, const la::DenseMatrix& reference) {
  la::DenseMatrix u = space.u;
  la::DenseMatrix v = space.v.to_dense();
  const index_t cols = std::min(u.cols(), reference.cols());
  bool flipped = false;
  for (index_t j = 0; j < cols; ++j) {
    const double agreement = la::dot(u.col(j), reference.col(j));
    if (agreement < 0.0) {
      la::scale(u.col(j), -1.0);
      la::scale(v.col(j), -1.0);
      flipped = true;
    }
  }
  space.u = std::move(u);
  space.v = v;
  // A flip keeps V's shape, which the caches' row-count guard cannot see;
  // the bf16 store would go on decoding the old signs.
  if (flipped) space.invalidate_doc_norms();
}

double energy_captured(const std::vector<double>& sigma, index_t k) {
  double total = 0.0, head = 0.0;
  for (index_t i = 0; i < sigma.size(); ++i) {
    const double s2 = sigma[i] * sigma[i];
    total += s2;
    if (i < k) head += s2;
  }
  return total > 0.0 ? head / total : 0.0;
}

index_t suggest_k(const std::vector<double>& sigma, double energy_fraction) {
  double total = 0.0;
  for (double s : sigma) total += s * s;
  if (total <= 0.0) return 0;
  double head = 0.0;
  for (index_t k = 0; k < sigma.size(); ++k) {
    head += sigma[k] * sigma[k];
    if (head >= energy_fraction * total) return k + 1;
  }
  return sigma.size();
}

double orthogonality_loss(const la::DenseMatrix& q) {
  la::DenseMatrix gram = la::multiply_at_b(q, q);
  for (index_t i = 0; i < gram.rows(); ++i) gram(i, i) -= 1.0;
  // Spectral norm of the symmetric deviation = largest singular value.
  if (gram.rows() == 0) return 0.0;
  const la::SvdResult s = la::golub_kahan_svd(gram);
  return s.s.empty() ? 0.0 : s.s[0];
}

}  // namespace lsi::core
