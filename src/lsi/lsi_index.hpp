#pragma once
// LsiIndex: the high-level public API tying the whole pipeline together —
// parse a collection, weight it (Equation 5), compute the truncated SVD,
// then query, fold-in, or SVD-update. This is the type the examples and most
// benches use; the lower layers stay available for fine-grained control.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lsi/folding.hpp"
#include "lsi/gather/term_stats.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/status.hpp"
#include "lsi/update.hpp"
#include "text/parser.hpp"
#include "weighting/weighting.hpp"

namespace lsi::core {

/// The single source of truth for pipeline configuration. Observability
/// goes to the ambient active sink (obs::Sink::active()), never to a
/// per-index one.
///
/// Query behavior is not configured here: every query call takes its own
/// SearchOptions (default-constructed when omitted).
struct IndexOptions {
  text::ParserOptions parser;
  weighting::Scheme scheme = weighting::kLogEntropy;
  index_t k = 100;             ///< factors retained
  BuildOptions build;          ///< SVD solver choice and settings
  /// Store document vectors additionally as bf16 and score the Equation-6
  /// sweep against them (fp32 accumulation, ~half the memory traffic of the
  /// fp64 sweep; docs/KERNELS.md). Rankings are near-identical, not
  /// bit-identical, to the fp64 path — overlap@10 >= 0.99 is gated by
  /// bench_kernel_roofline. The flag is sticky across fold-ins,
  /// consolidation and save/load.
  bool compress_docs = false;
  /// When non-null, Equation 5 global weights G(i) come from these
  /// COLLECTION-wide term statistics (published by the cross-shard
  /// gather::TermStatsExchange) instead of this index's own counts. Local
  /// weights L(i,j) are unaffected. This is how every shard of a sharded
  /// build applies the SAME global weight to a term even though each shard
  /// sees only its slice of the collection (docs/GATHER.md).
  std::shared_ptr<const gather::GlobalTermStats> shared_stats;

  /// First violation found, or OK. Checked by LsiIndex::try_build before
  /// any work happens.
  Status Validate() const;
};

/// How new documents are incorporated (Section 2.3's taxonomy).
enum class AddMethod {
  kFoldIn,     ///< Equation 7; cheap, existing structure frozen
  kSvdUpdate,  ///< Section 4; rotates the whole decomposition
};

/// The frozen query-side configuration of an index: vocabulary, parser
/// options and Equation-5 weighting, fixed when the index is built (fold-in
/// semantics: new documents never extend the vocabulary). Every snapshot and
/// every copy of the index share one instance; immutable and therefore
/// freely shared across threads.
class SnapshotQueryContext {
 public:
  SnapshotQueryContext(text::Vocabulary vocabulary,
                       text::ParserOptions parser, weighting::Scheme scheme,
                       std::vector<double> global_weights);

  /// Weighted sparse term vector for free text, consistent with the index
  /// scheme (unknown words are dropped, exactly like "of children with" in
  /// the paper's example query): text::term_counts then
  /// weighting::apply_to_sparse, O(tokens + nnz).
  la::SparseVector weighted_terms(std::string_view text) const;

  /// weighted_terms densified to an m-vector.
  la::Vector weighted_term_vector(std::string_view text) const;

  const text::Vocabulary& vocabulary() const noexcept { return vocabulary_; }
  /// Equation-5 global weights G(i), one per vocabulary term.
  const std::vector<double>& global_weights() const noexcept {
    return global_weights_;
  }

 private:
  text::Vocabulary vocabulary_;
  text::ParserOptions parser_;
  weighting::Scheme scheme_;
  std::vector<double> global_weights_;
};

struct QueryResult {
  std::string label;
  index_t doc = 0;
  double cosine = 0.0;
};

class LsiIndex {
 public:
  /// Parses, weights and decomposes a collection. Fails with the first
  /// IndexOptions::Validate() violation, InvalidArgument on an empty
  /// collection, or whatever try_build_semantic_space reports. Runs under
  /// the "build" trace span.
  static Expected<LsiIndex> try_build(const text::Collection& docs,
                                      const IndexOptions& opts);

  /// Ranks documents against free-text. Unknown words are ignored (they are
  /// not indexed terms, exactly like "of children with" in the paper's
  /// example query). `opts` supplies z, min_cosine and mode; `stats`,
  /// when non-null, accumulates the per-stage breakdown.
  std::vector<QueryResult> query(std::string_view text,
                                 const SearchOptions& opts = {},
                                 QueryStats* stats = nullptr) const;

  /// Projects free-text into k-space (for relevance feedback, filtering
  /// profiles, and term lookups).
  la::Vector project(std::string_view text) const;

  /// Ranks documents against an already-projected k-vector.
  std::vector<QueryResult> query_projected(const la::Vector& q_hat,
                                           const SearchOptions& opts = {},
                                           QueryStats* stats = nullptr) const;

  /// Adds new documents by folding-in or SVD-updating. Terms not in the
  /// vocabulary are dropped (the paper's fold-in semantics); document labels
  /// are appended.
  void add_documents(const text::Collection& docs, AddMethod method);

  /// Most similar terms to the given term (Section 5.4: online thesaurus).
  std::vector<std::pair<std::string, double>> similar_terms(
      std::string_view term, std::size_t top = 10) const;

  const SemanticSpace& space() const noexcept { return space_; }
  SemanticSpace& mutable_space() noexcept { return space_; }
  const text::Vocabulary& vocabulary() const noexcept {
    return ctx_->vocabulary();
  }
  const std::vector<std::string>& doc_labels() const noexcept {
    return labels_;
  }
  /// Mutable label list for components (e.g. IncrementalIndexer) that
  /// manage documents through mutable_space() directly.
  std::vector<std::string>& mutable_labels() noexcept { return labels_; }
  const la::CscMatrix& raw_counts() const noexcept { return counts_; }
  const la::CscMatrix& weighted_matrix() const noexcept { return weighted_; }
  const std::vector<double>& global_weights() const noexcept {
    return ctx_->global_weights();
  }
  const IndexOptions& options() const noexcept { return opts_; }
  /// The query-side configuration, shared by every copy of this index and
  /// every snapshot published from it.
  const std::shared_ptr<const SnapshotQueryContext>& context_ptr()
      const noexcept {
    return ctx_;
  }

  /// SnapshotQueryContext::weighted_terms of this index.
  la::SparseVector weighted_terms(std::string_view text) const {
    return ctx_->weighted_terms(text);
  }

  /// weighted_terms densified to an m-vector.
  la::Vector weighted_term_vector(std::string_view text) const {
    return ctx_->weighted_term_vector(text);
  }

 private:
  IndexOptions opts_;
  std::shared_ptr<const SnapshotQueryContext> ctx_;
  la::CscMatrix counts_;             ///< raw counts of the *original* docs
  la::CscMatrix weighted_;           ///< Equation 5 applied
  SemanticSpace space_;
  std::vector<std::string> labels_;  ///< grows as documents are added
};

}  // namespace lsi::core
