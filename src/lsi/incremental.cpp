#include "lsi/incremental.hpp"

#include <algorithm>

#include "lsi/folding.hpp"
#include "lsi/update.hpp"

namespace lsi::core {

IncrementalIndexer::IncrementalIndexer(LsiIndex index,
                                       const IncrementalOptions& opts)
    : index_(std::move(index)), opts_(opts) {}

std::size_t IncrementalIndexer::add(std::span<const text::Document> docs) {
  std::size_t consolidated = 0;
  while (!docs.empty()) {
    std::size_t run = docs.size();
    if (opts_.consolidate_every > 0) {
      run = std::min(run, opts_.consolidate_every - pending_docs_.size());
    }
    // Immediate availability: fold the run in now, one column per document.
    const std::size_t first = pending_docs_.size();
    for (std::size_t c = 0; c < run; ++c) {
      pending_docs_.push_back(index_.weighted_terms(docs[c].body));
      index_.mutable_labels().push_back(docs[c].label);
    }
    fold_in_documents(index_.mutable_space(),
                      la::CscMatrix::from_columns(
                          index_.space().num_terms(),
                          std::span(pending_docs_).subspan(first)));
    docs = docs.subspan(run);

    if (opts_.consolidate_every > 0 &&
        pending_docs_.size() >= opts_.consolidate_every) {
      consolidate();
      ++consolidated;
    }
  }
  return consolidated;
}

la::DenseMatrix IncrementalIndexer::consolidate() {
  SemanticSpace& space = index_.mutable_space();
  if (pending_docs_.empty()) return la::DenseMatrix::identity(space.k());
  const std::size_t p = pending_docs_.size();

  // Drop the folded rows (the last p rows of V) and redo the batch as a
  // proper SVD-update so the decomposition is orthonormal again.
  la::DenseMatrix v_trunc(space.num_docs() - p, space.k());
  for (index_t j = 0; j < space.k(); ++j) {
    for (index_t i = 0; i < v_trunc.rows(); ++i) {
      v_trunc(i, j) = space.v(i, j);
    }
  }
  space.v = std::move(v_trunc);
  space.invalidate_doc_norms();

  const la::CscMatrix d =
      la::CscMatrix::from_columns(space.num_terms(), pending_docs_);
  la::DenseMatrix map = opts_.exact_update ? update_documents_exact(space, d)
                                            : update_documents(space, d);
  pending_docs_.clear();
  ++consolidations_;
  return map;
}

}  // namespace lsi::core
