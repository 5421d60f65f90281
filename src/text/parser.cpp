#include "text/parser.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "text/stemmer.hpp"
#include "text/stopwords.hpp"
#include "text/term_hash.hpp"

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
  using TermId = std::uint32_t;
  // Pass 1: intern every token once; each document becomes a run of ids in
  // `tokens`. The map's keys never move, so `names` can point at them.
  std::unordered_map<std::string, TermId, TermHash, std::equal_to<>> ids;
  std::vector<const std::string*> names;  // id -> token
  std::vector<TermId> tokens;
  std::vector<std::size_t> doc_start(docs.size() + 1, 0);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (std::string& token : content_tokens(docs[d].body, opts)) {
      const auto next = static_cast<TermId>(names.size());
      const auto [it, inserted] = ids.try_emplace(std::move(token), next);
      if (inserted) names.push_back(&it->first);
      tokens.push_back(it->second);
    }
    doc_start[d + 1] = tokens.size();
  }

  // Plural folding, once per distinct token: "xs" -> "x" iff "x" itself
  // occurs somewhere in the collection.
  std::vector<TermId> folded(names.size());
  for (TermId id = 0; id < names.size(); ++id) {
    folded[id] = id;
    const std::string_view token = *names[id];
    if (opts.fold_plurals && token.size() >= 4 && token.back() == 's') {
      const auto it = ids.find(token.substr(0, token.size() - 1));
      if (it != ids.end()) folded[id] = it->second;
    }
  }

  // Pass 2: sorting a document's folded ids groups each term's occurrences;
  // each run is one (term, tf) entry and adds one to the term's df.
  std::vector<TermId> run_ids;
  std::vector<double> run_tf;
  std::vector<std::size_t> run_start(docs.size() + 1, 0);
  std::vector<std::size_t> df(names.size(), 0);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const auto first = tokens.begin() + doc_start[d];
    const auto last = tokens.begin() + doc_start[d + 1];
    for (auto it = first; it != last; ++it) *it = folded[*it];
    std::sort(first, last);
    for (auto p = first; p != last;) {
      auto q = p + 1;
      while (q != last && *q == *p) ++q;
      run_ids.push_back(*p);
      run_tf.push_back(static_cast<double>(q - p));
      ++df[*p];
      p = q;
    }
    run_start[d + 1] = run_ids.size();
  }

  // Vocabulary: the terms occurring in enough documents, alphabetical.
  std::vector<TermId> kept;
  for (TermId id = 0; id < names.size(); ++id) {
    if (df[id] > 0 && df[id] >= opts.min_document_frequency) {
      kept.push_back(id);
    }
  }
  std::sort(kept.begin(), kept.end(),
            [&](TermId a, TermId b) { return *names[a] < *names[b]; });
  constexpr auto kDropped = static_cast<lsi::la::index_t>(-1);
  std::vector<lsi::la::index_t> row_of(names.size(), kDropped);
  std::vector<std::string> terms;
  terms.reserve(kept.size());
  for (std::size_t r = 0; r < kept.size(); ++r) {
    row_of[kept[r]] = r;
    terms.push_back(*names[kept[r]]);
  }

  TermDocumentMatrix out;
  out.vocabulary = Vocabulary(std::move(terms));
  out.doc_labels.reserve(docs.size());
  for (const auto& d : docs) out.doc_labels.push_back(d.label);

  // CSC, one column per document: its kept runs as (row, tf), rows sorted.
  std::vector<lsi::la::index_t> col_ptr(docs.size() + 1, 0);
  std::vector<lsi::la::index_t> row_idx;
  std::vector<double> values;
  std::vector<std::pair<lsi::la::index_t, double>> column;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    column.clear();
    for (std::size_t p = run_start[d]; p < run_start[d + 1]; ++p) {
      const lsi::la::index_t row = row_of[run_ids[p]];
      if (row != kDropped) column.emplace_back(row, run_tf[p]);
    }
    std::sort(column.begin(), column.end());
    for (const auto& [row, tf] : column) {
      row_idx.push_back(row);
      values.push_back(tf);
    }
    col_ptr[d + 1] = row_idx.size();
  }
  out.counts = lsi::la::CscMatrix(out.vocabulary.size(), docs.size(),
                                  std::move(col_ptr), std::move(row_idx),
                                  std::move(values));
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
