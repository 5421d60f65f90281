#include "lsi/doc_store.hpp"

#include <cassert>
#include <utility>

#include "la/kernels.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace lsi::core {

std::vector<std::uint16_t> Bf16DocStore::payload() const {
  std::vector<std::uint16_t> out(num_docs_ * static_cast<std::size_t>(k_));
  for (la::index_t i = 0; i < k_; ++i) {
    for (la::index_t j = 0; j < num_docs_; ++j) {
      out[i * static_cast<std::size_t>(num_docs_) + j] = word(j, i);
    }
  }
  return out;
}

void Bf16DocStore::fill_norms(std::span<const double> sigma) {
  const la::index_t begin = norms_[0].rows();
  for (std::size_t slot = 0; slot < kNumDocNormVectors; ++slot) {
    const bool scale_docs =
        slot == doc_norm_slot(SimilarityMode::kColumnSpace);
    std::vector<double> fresh(num_docs_ - begin);
    util::parallel_for_chunks(
        begin, num_docs_,
        [&](std::size_t lo, std::size_t hi) {
          // Decoded-value norms, double accumulation: the scored vector is
          // the decoded bf16 row, so that is what the cosine divides by.
          // Same scratch-row shape, grain, and la::norm2 as the fp64 cache
          // fill (semantic_space.cpp) so the two paths stay comparable.
          la::Vector doc(k_);
          for (std::size_t j = lo; j < hi; ++j) {
            for (la::index_t i = 0; i < k_; ++i) {
              doc[i] = static_cast<double>(la::kern::bf16_to_f32(word(j, i)));
              if (scale_docs) doc[i] *= sigma[i];
            }
            fresh[j - begin] = la::norm2(doc);
          }
        },
        /*grain=*/256);
    if (norms_[slot].width() == 0) norms_[slot] = util::RowBlocks<double>(1);
    norms_[slot].append(fresh.size(),
                        [&](std::size_t j, std::size_t) { return fresh[j]; });
  }
}

std::shared_ptr<const Bf16DocStore> Bf16DocStore::build(
    const SemanticSpace& space) {
  LSI_OBS_SPAN(span, "retrieval.bf16_store.build");
  auto store = std::shared_ptr<Bf16DocStore>(new Bf16DocStore());
  store->num_docs_ = space.num_docs();
  store->k_ = space.k();
  store->words_ = util::RowBlocks<std::uint16_t>(store->k_);
  store->words_.append(store->num_docs_, [&](std::size_t j, std::size_t i) {
    return la::kern::bf16_from_f64(space.v(j, i));
  });
  store->fill_norms(space.sigma);
  obs::count("retrieval.bf16_store.builds");
  return store;
}

std::shared_ptr<const Bf16DocStore> Bf16DocStore::extend(
    const Bf16DocStore& old, const SemanticSpace& space) {
  assert(space.k() == old.k_);
  assert(space.num_docs() >= old.num_docs_);
  LSI_OBS_SPAN(span, "retrieval.bf16_store.extend");
  // Old words and norms are shared; only the appended rows are encoded and
  // normed — per element the exact arithmetic of a fresh build, so
  // extension is bit-identical to it (tests/lsi/bf16_store_test.cpp).
  auto store = std::shared_ptr<Bf16DocStore>(new Bf16DocStore(old));
  const std::size_t n0 = old.num_docs_;
  store->num_docs_ = space.num_docs();
  store->words_.append(store->num_docs_ - n0,
                       [&](std::size_t j, std::size_t i) {
                         return la::kern::bf16_from_f64(space.v(n0 + j, i));
                       });
  store->fill_norms(space.sigma);
  obs::count("retrieval.bf16_store.extends",
             store->num_docs_ - old.num_docs_);
  return store;
}

std::shared_ptr<const Bf16DocStore> Bf16DocStore::from_payload(
    la::index_t num_docs, la::index_t k, std::vector<std::uint16_t> data,
    std::span<const double> sigma) {
  assert(data.size() ==
         static_cast<std::size_t>(num_docs) * static_cast<std::size_t>(k));
  auto store = std::shared_ptr<Bf16DocStore>(new Bf16DocStore());
  store->num_docs_ = num_docs;
  store->k_ = k;
  store->words_ = util::RowBlocks<std::uint16_t>(k);
  store->words_.append(num_docs, [&](std::size_t j, std::size_t i) {
    return data[i * static_cast<std::size_t>(num_docs) + j];
  });
  store->fill_norms(sigma);
  return store;
}

}  // namespace lsi::core
