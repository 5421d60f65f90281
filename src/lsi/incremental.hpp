#pragma once
// Real-time SVD-updating — the second open problem of Section 5.6
// ("perform SVD-updating in real-time for databases that change
// frequently").
//
// Strategy: arriving documents are folded in immediately (cheap: Table 7
// prices it at 2mk flops per document; here a document is tokenized straight
// into its sparse weighted column and folded at 2 nnz k, never touching an
// m-vector), and the decomposition is *consolidated* by an SVD-update over
// the accumulated batch once the number of folded-but-not-consolidated
// documents exceeds a budget. This bounds both the per-arrival latency and
// the basis distortion folding-in accrues (Section 4.3).

#include <cstddef>
#include <span>

#include "lsi/lsi_index.hpp"

namespace lsi::core {

struct IncrementalOptions {
  /// Consolidate after this many folded-in documents (0 = never, pure
  /// folding).
  std::size_t consolidate_every = 64;
  /// Use the exact (residual-carrying) update when consolidating.
  bool exact_update = false;
};

/// Wraps an LsiIndex with fold-now / consolidate-later ingestion.
class IncrementalIndexer {
 public:
  IncrementalIndexer(LsiIndex index, const IncrementalOptions& opts = {});

  /// Ingests documents in order, exactly as adding them one at a time would:
  /// each run up to the next consolidation boundary is folded in with one
  /// fold_in_documents call (one V append, one norm-cache extension), and a
  /// consolidation pass runs whenever the batch budget is exhausted. Returns
  /// the number of consolidations this call performed.
  std::size_t add(std::span<const text::Document> docs);

  /// The one-document case of add(docs). Returns true if this call
  /// consolidated.
  bool add(const text::Document& doc) { return add({&doc, 1}) > 0; }

  /// Forces consolidation of any pending documents. Returns the update's
  /// k x k map of the sigma-scaled coordinates of the documents consolidated
  /// before (update_documents{,_exact}); the identity when none are pending.
  la::DenseMatrix consolidate();

  std::size_t pending() const noexcept { return pending_docs_.size(); }
  std::size_t consolidations() const noexcept { return consolidations_; }
  const LsiIndex& index() const noexcept { return index_; }
  LsiIndex& index() noexcept { return index_; }

 private:
  LsiIndex index_;
  IncrementalOptions opts_;
  /// Weighted sparse term vectors of folded-but-unconsolidated documents;
  /// kept so consolidation can rebuild their coordinates through the
  /// SVD-update. They are the columns of the update's D as they are.
  std::vector<la::SparseVector> pending_docs_;
  std::size_t consolidations_ = 0;
};

}  // namespace lsi::core
