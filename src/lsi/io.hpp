#pragma once
// Persistence for LSI-encoded databases: the semantic space (U, S, V), the
// vocabulary and the document labels — "creating the LSI database of
// singular values and vectors for retrieval" in the paper's tool list.
// The format is a versioned little-endian binary stream.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "lsi/semantic_space.hpp"
#include "lsi/status.hpp"
#include "text/parser.hpp"
#include "text/vocabulary.hpp"
#include "weighting/weighting.hpp"

namespace lsi::core {

struct LsiDatabase {
  LsiDatabase() = default;
  LsiDatabase(SemanticSpace space_in, text::Vocabulary vocabulary_in,
              std::vector<std::string> labels_in, weighting::Scheme scheme_in,
              std::vector<double> global_weights_in,
              text::ParserOptions parser_in = {})
      : space(std::move(space_in)),
        vocabulary(std::move(vocabulary_in)),
        doc_labels(std::move(labels_in)),
        scheme(scheme_in),
        global_weights(std::move(global_weights_in)),
        parser(parser_in) {}

  SemanticSpace space;
  text::Vocabulary vocabulary;
  std::vector<std::string> doc_labels;
  /// Equation-5 weighting the matrix was built with, so queries against a
  /// reloaded database weight consistently. Global weights are per-term
  /// (empty = all ones).
  weighting::Scheme scheme = weighting::kRaw;
  std::vector<double> global_weights;
  /// Parser options queries and fold-ins are tokenized with, so a database
  /// built with --stem or --bigrams matches the terms it indexed.
  text::ParserOptions parser;
};

/// Serializes to a stream. Fails with Internal on write failure. Runs under
/// the "io.save" trace span.
Status try_save_database(std::ostream& os, const LsiDatabase& db);

/// Deserializes. Fails with DataLoss on malformed/truncated input, a
/// magic-number mismatch, a count the rest of the stream cannot hold, shapes
/// that disagree (U must be m x k with m vocabulary terms, sigma k entries,
/// V n x k with n labels or none) or a non-finite U, sigma or V entry. Runs
/// under the "io.load" trace span.
Expected<LsiDatabase> try_load_database(std::istream& is);

/// File conveniences; additionally fail with NotFound when the path cannot
/// be opened.
Status try_save_database_file(const std::string& path, const LsiDatabase& db);
Expected<LsiDatabase> try_load_database_file(const std::string& path);

}  // namespace lsi::core
