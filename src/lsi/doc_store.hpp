#pragma once
// Compressed (bf16) document-vector store: an optional reduced-precision
// mirror of V_k for the Eq. 6 scoring sweep (docs/KERNELS.md).
//
// Memory is the scoring sweep's roof: at scale the sweep streams n*k doubles
// of V per batch. Storing the document coordinates as bf16 (the top 16 bits
// of fp32, round-to-nearest-even) quarters that traffic; accumulation stays
// fp32 and every norm/normalization stays double, which keeps ranking
// overlap@10 >= 0.99 against the fp64 path (gated by bench_kernel_roofline).
//
// Layout mirrors V: 512-row blocks, column-major inside a block (factor i
// of a block's rows is contiguous), which is exactly the access order of
// the batched sweep. The store also carries its own document norms,
// computed from the DECODED bf16 values — cosines must divide by the norm of
// the vector actually scored, not the fp64 norm, or the quantization would
// bias every score.
//
// Lifecycle: owned by SemanticSpace behind the same lazy/extend/invalidate
// protocol as the doc-norm caches (see semantic_space.hpp). The store is
// immutable once built; "extension" builds a new store that shares every
// block of the old one and encodes only the appended rows, bit-identical
// to a fresh build over the larger space.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "la/dense.hpp"
#include "lsi/semantic_space.hpp"
#include "util/row_blocks.hpp"

namespace lsi::core {

class Bf16DocStore {
 public:
  /// Encodes space.v (round-to-nearest-even via kern::bf16_from_f64) and
  /// computes the decoded-value norms. Deterministic given the space;
  /// building twice yields byte-identical stores.
  static std::shared_ptr<const Bf16DocStore> build(const SemanticSpace& space);

  /// Append-only maintenance: shares `old`'s blocks and encodes only rows
  /// [old.num_docs(), space.num_docs()). Only valid when the mutation
  /// appended V rows and left existing rows and sigma untouched; the result
  /// is bit-identical to build(space).
  static std::shared_ptr<const Bf16DocStore> extend(const Bf16DocStore& old,
                                                    const SemanticSpace& space);

  /// Reconstructs a store from a serialized payload (lsi/io.cpp): the norms
  /// are recomputed from the payload and `sigma`, so a loaded store is
  /// byte-identical to the one that was saved.
  static std::shared_ptr<const Bf16DocStore> from_payload(
      la::index_t num_docs, la::index_t k, std::vector<std::uint16_t> data,
      std::span<const double> sigma);

  la::index_t num_docs() const noexcept { return num_docs_; }
  la::index_t k() const noexcept { return k_; }

  /// Encoded word of document j, factor i.
  std::uint16_t word(la::index_t j, la::index_t i) const noexcept {
    return words_(j, i);
  }
  /// Block b of the encoded words: factor i of its rows starts at
  /// block(b) + i * util::kBlockStride.
  const std::uint16_t* block(std::size_t b) const noexcept {
    return words_.block(b);
  }
  /// The words as one column-major num_docs() x k() array (io).
  std::vector<std::uint16_t> payload() const;

  /// Per-document norms of the decoded coordinates `mode` compares against
  /// (decoded bf16 values scaled by sigma for the sigma-scaled modes),
  /// computed with the same scalar la::norm2 as the fp64 caches, in the
  /// same blocks. The sigma-scaled modes return the same vector
  /// (kNumDocNormVectors).
  const util::RowBlocks<double>& doc_norms(SimilarityMode mode) const noexcept {
    return norms_[doc_norm_slot(mode)];
  }

 private:
  Bf16DocStore() = default;

  /// Appends the norms of rows [norms_.rows(), num_docs()) to every slot.
  void fill_norms(std::span<const double> sigma);

  la::index_t num_docs_ = 0;
  la::index_t k_ = 0;
  util::RowBlocks<std::uint16_t> words_;  ///< num_docs x k, V's blocks
  std::array<util::RowBlocks<double>, kNumDocNormVectors> norms_;
};

}  // namespace lsi::core
