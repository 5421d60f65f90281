#pragma once
// Term-document matrix construction (Section 2.1, Equation 4): element
// a_ij is the raw frequency of term i in document j. Weighting (Equation 5)
// is applied separately by src/weighting.

#include <map>
#include <string>
#include <vector>

#include "la/sparse.hpp"
#include "text/document.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"

namespace lsi::text {

struct ParserOptions {
  TokenizerOptions tokenizer;
  bool remove_stopwords = true;
  /// Minimum number of distinct documents a term must occur in to be
  /// indexed. The paper's example uses 2 ("keywords appear in more than one
  /// topic"); general collections usually use 1 or 2.
  std::size_t min_document_frequency = 1;
  /// Fold simple plurals: a token ending in 's' is mapped to its stem when
  /// the stem itself occurs as a token somewhere in the collection
  /// ("cultures" -> "culture" in the paper's Table 3, while "patients" and
  /// "rats" stay whole because "patient"/"rat" never occur).
  bool fold_plurals = false;
  /// Apply the Porter stemmer to every content token. The paper runs LSI
  /// *without* stemming (Section 5.4) — the stemming ablation bench
  /// measures what the rule-based conflation buys on top of the latent
  /// structure. Mutually independent of fold_plurals (stemming wins if both
  /// are set, since it subsumes plural folding).
  bool stem = false;
  /// Additionally index adjacent-content-word bigrams as terms of the form
  /// "left_right" (Section 5.4: "phrases or n-grams could also be included
  /// as rows in the matrix"). Bigrams obey min_document_frequency like any
  /// other term.
  bool add_bigrams = false;
};

/// A parsed collection: raw counts plus the mappings back to terms/labels.
struct TermDocumentMatrix {
  lsi::la::CscMatrix counts;            ///< m terms x n documents, raw tf
  Vocabulary vocabulary;                ///< row index -> term
  std::vector<std::string> doc_labels;  ///< column index -> label
};

/// Parses a collection into a term-document matrix. Term rows are ordered
/// alphabetically (the paper's Table 3 ordering) for reproducibility.
TermDocumentMatrix build_term_document_matrix(const Collection& docs,
                                              const ParserOptions& opts = {});

/// Tokenizes a query/document against an existing vocabulary and returns its
/// raw term frequencies as (row, tf) pairs, rows ascending and unique
/// (Section 2.2: q is "the vector of words in the user's query" — a handful
/// of nonzeros among m terms). Unknown terms are ignored, mirroring the
/// paper's treatment of non-indexed query words; with fold_plurals an
/// unknown "xs" counts as "x" when the vocabulary holds "x".
lsi::la::SparseVector term_counts(const Vocabulary& vocabulary,
                                  std::string_view body,
                                  const ParserOptions& opts = {});

/// term_counts densified to the m x 1 raw term-frequency vector.
lsi::la::Vector text_to_term_vector(const TermDocumentMatrix& tdm,
                                    std::string_view body,
                                    const ParserOptions& opts = {});

/// Tokenizes ONE document in isolation and returns its term -> raw tf map
/// (ordered, so downstream accumulation is deterministic). Used by the
/// gather term-statistics exchange to fold streamed documents into the
/// cross-shard counts without rebuilding a matrix. Plural folding sees only
/// this document's tokens as the stem universe — a per-document
/// approximation of build_term_document_matrix's collection-wide rule, so a
/// lone "cultures" stays whole here even if "culture" appears elsewhere in
/// the collection. The divergence only affects fold_plurals collections and
/// only the exchange's streamed counts, never the index itself.
std::map<std::string, double> document_term_counts(
    std::string_view body, const ParserOptions& opts = {});

/// Document frequency of every term (number of columns with a nonzero).
std::vector<std::size_t> document_frequencies(const lsi::la::CscMatrix& counts);

/// Global frequency of every term (sum of each row).
std::vector<double> global_frequencies(const lsi::la::CscMatrix& counts);

}  // namespace lsi::text
