#include "text/parser.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.hpp"
#include "text/stemmer.hpp"
#include "text/stopwords.hpp"

namespace lsi::text {

namespace {

/// Tokenize + stop-filter (+ stem, + bigram expansion) one document body.
/// Bigrams are appended after the unigrams so unigram positions stay
/// contiguous for the adjacency pairing.
std::vector<std::string> content_tokens(std::string_view body,
                                        const ParserOptions& opts) {
  std::vector<std::string> tokens = tokenize(body, opts.tokenizer);
  if (opts.remove_stopwords) {
    std::erase_if(tokens,
                  [](const std::string& t) { return is_stopword(t); });
  }
  if (opts.stem) {
    for (auto& t : tokens) t = porter_stem(t);
  }
  if (opts.add_bigrams && tokens.size() >= 2) {
    const std::size_t unigrams = tokens.size();
    tokens.reserve(2 * unigrams - 1);
    for (std::size_t i = 0; i + 1 < unigrams; ++i) {
      tokens.push_back(tokens[i] + "_" + tokens[i + 1]);
    }
  }
  return tokens;
}

/// Applies the plural-folding rule given the set of all tokens seen in the
/// collection: "xs" -> "x" iff "x" itself occurs somewhere.
std::string fold_token(const std::string& token,
                       const std::unordered_set<std::string>& all_tokens,
                       const ParserOptions& opts) {
  if (!opts.fold_plurals) return token;
  if (token.size() < 4 || token.back() != 's') return token;
  std::string stem = token.substr(0, token.size() - 1);
  if (all_tokens.count(stem)) return stem;
  return token;
}

}  // namespace

TermDocumentMatrix build_term_document_matrix(const Collection& docs,
                                              const ParserOptions& opts) {
  LSI_OBS_SPAN(span, "build.parse");
  // Pass 1: tokenize everything and record the token universe (needed by the
  // plural-folding rule before counting).
  std::vector<std::vector<std::string>> doc_tokens(docs.size());
  std::unordered_set<std::string> universe;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    doc_tokens[d] = content_tokens(docs[d].body, opts);
    universe.insert(doc_tokens[d].begin(), doc_tokens[d].end());
  }

  // Pass 2: fold plurals, count per-document frequencies and document
  // frequencies of the folded terms.
  std::vector<std::map<std::string, double>> tf(docs.size());
  std::map<std::string, std::size_t> df;  // ordered -> alphabetical rows
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (const auto& raw : doc_tokens[d]) {
      tf[d][fold_token(raw, universe, opts)] += 1.0;
    }
    for (const auto& [term, count] : tf[d]) {
      (void)count;
      ++df[term];
    }
  }

  // Vocabulary: alphabetical, df-filtered.
  std::vector<std::string> terms;
  for (const auto& [term, count] : df) {
    if (count >= opts.min_document_frequency) terms.push_back(term);
  }

  TermDocumentMatrix out;
  out.vocabulary = Vocabulary(std::move(terms));
  out.doc_labels.reserve(docs.size());
  for (const auto& d : docs) out.doc_labels.push_back(d.label);

  lsi::la::CooBuilder builder(out.vocabulary.size(), docs.size());
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (const auto& [term, count] : tf[d]) {
      if (auto row = out.vocabulary.find(term)) {
        builder.add(*row, d, count);
      }
    }
  }
  out.counts = builder.to_csc();
  obs::gauge("build.terms", static_cast<double>(out.counts.rows()));
  obs::gauge("build.docs", static_cast<double>(out.counts.cols()));
  obs::gauge("build.nnz", static_cast<double>(out.counts.nnz()));
  return out;
}

lsi::la::SparseVector term_counts(const Vocabulary& vocabulary,
                                  std::string_view body,
                                  const ParserOptions& opts) {
  std::vector<lsi::la::index_t> hits;
  for (const auto& token : content_tokens(body, opts)) {
    auto row = vocabulary.find(token);
    if (!row && opts.fold_plurals && token.size() >= 4 &&
        token.back() == 's') {
      row = vocabulary.find(std::string_view(token.data(), token.size() - 1));
    }
    if (row) hits.push_back(*row);
  }
  // Sorting the hits groups each term's occurrences; each run's length is
  // its raw tf.
  std::sort(hits.begin(), hits.end());
  lsi::la::SparseVector out;
  for (std::size_t p = 0; p < hits.size();) {
    std::size_t q = p + 1;
    while (q < hits.size() && hits[q] == hits[p]) ++q;
    out.rows.push_back(hits[p]);
    out.values.push_back(static_cast<double>(q - p));
    p = q;
  }
  return out;
}

lsi::la::Vector text_to_term_vector(const TermDocumentMatrix& tdm,
                                    std::string_view body,
                                    const ParserOptions& opts) {
  return term_counts(tdm.vocabulary, body, opts)
      .to_dense(tdm.vocabulary.size());
}

std::map<std::string, double> document_term_counts(std::string_view body,
                                                   const ParserOptions& opts) {
  const std::vector<std::string> tokens = content_tokens(body, opts);
  std::unordered_set<std::string> universe(tokens.begin(), tokens.end());
  std::map<std::string, double> tf;
  for (const auto& raw : tokens) tf[fold_token(raw, universe, opts)] += 1.0;
  return tf;
}

std::vector<std::size_t> document_frequencies(
    const lsi::la::CscMatrix& counts) {
  std::vector<std::size_t> df(counts.rows(), 0);
  for (lsi::la::index_t j = 0; j < counts.cols(); ++j) {
    for (lsi::la::index_t r : counts.col_rows(j)) ++df[r];
  }
  return df;
}

std::vector<double> global_frequencies(const lsi::la::CscMatrix& counts) {
  std::vector<double> gf(counts.rows(), 0.0);
  for (lsi::la::index_t j = 0; j < counts.cols(); ++j) {
    auto rows = counts.col_rows(j);
    auto vals = counts.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p) gf[rows[p]] += vals[p];
  }
  return gf;
}

}  // namespace lsi::text
