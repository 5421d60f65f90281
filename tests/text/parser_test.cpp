// Parser tests, including the headline reproduction of the paper's Table 3
// from the raw Table 2 topic texts.

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "data/med_topics.hpp"
#include "la/sparse.hpp"
#include "synth/corpus.hpp"
#include "text/parser.hpp"
#include "text/stemmer.hpp"
#include "text/stopwords.hpp"

namespace {

using namespace lsi::text;
using lsi::la::index_t;

ParserOptions paper_options() {
  ParserOptions opts;
  opts.min_document_frequency = 2;  // "keywords appear in more than one topic"
  opts.fold_plurals = true;         // "cultures" (M8) indexes under "culture"
  return opts;
}

TEST(Parser, ReproducesTable3Vocabulary) {
  auto tdm = build_term_document_matrix(lsi::data::med_topics(),
                                        paper_options());
  ASSERT_EQ(tdm.vocabulary.size(), 18u);
  const auto& expect = lsi::data::table3_terms();
  for (index_t i = 0; i < 18; ++i) {
    EXPECT_EQ(tdm.vocabulary.term(i), expect[i]) << "row " << i;
  }
}

TEST(Parser, ReproducesTable3CountsUpToKnownTypo) {
  // The parsed matrix must equal the printed Table 3 everywhere except the
  // documented "respect" row: the topic *text* places it in M9 while the
  // printed table marks M8.
  auto tdm = build_term_document_matrix(lsi::data::med_topics(),
                                        paper_options());
  const auto& printed = lsi::data::table3_counts();
  ASSERT_EQ(tdm.counts.rows(), printed.rows());
  ASSERT_EQ(tdm.counts.cols(), printed.cols());
  const index_t respect_row = 15;
  int diffs = 0;
  for (index_t i = 0; i < printed.rows(); ++i) {
    for (index_t j = 0; j < printed.cols(); ++j) {
      if (tdm.counts.at(i, j) != printed.at(i, j)) {
        ++diffs;
        EXPECT_EQ(i, respect_row) << "unexpected diff at row " << i;
      }
    }
  }
  EXPECT_EQ(diffs, 2);  // respect@M8 (printed only) and respect@M9 (text only)
  EXPECT_EQ(tdm.counts.at(respect_row, 8), 1.0);   // M9 per the text
  EXPECT_EQ(tdm.counts.at(respect_row, 11), 1.0);  // M12 in both
  EXPECT_EQ(tdm.counts.at(respect_row, 7), 0.0);   // not M8 per the text
}

TEST(Parser, PluralFoldingOnlyWhenStemExists) {
  Collection docs = {{"A", "culture tests"}, {"B", "cultures of patients"},
                     {"C", "patients again"}};
  ParserOptions opts;
  opts.fold_plurals = true;
  auto tdm = build_term_document_matrix(docs, opts);
  // "cultures" folds onto "culture" (stem occurs in A); "patients" does not
  // fold ("patient" never occurs).
  EXPECT_TRUE(tdm.vocabulary.find("culture").has_value());
  EXPECT_FALSE(tdm.vocabulary.find("cultures").has_value());
  EXPECT_TRUE(tdm.vocabulary.find("patients").has_value());
  EXPECT_FALSE(tdm.vocabulary.find("patient").has_value());
  EXPECT_EQ(tdm.counts.at(*tdm.vocabulary.find("culture"), 1), 1.0);
}

TEST(Parser, MinDocumentFrequencyFilters) {
  Collection docs = {{"A", "apple banana"}, {"B", "apple cherry"}};
  ParserOptions opts;
  opts.min_document_frequency = 2;
  auto tdm = build_term_document_matrix(docs, opts);
  EXPECT_EQ(tdm.vocabulary.size(), 1u);
  EXPECT_TRUE(tdm.vocabulary.find("apple").has_value());
}

TEST(Parser, StopwordsRemoved) {
  Collection docs = {{"A", "the cat of the house"},
                     {"B", "the dog of the cat"}};
  auto tdm = build_term_document_matrix(docs, {});
  EXPECT_FALSE(tdm.vocabulary.find("the").has_value());
  EXPECT_FALSE(tdm.vocabulary.find("of").has_value());
  EXPECT_TRUE(tdm.vocabulary.find("cat").has_value());
}

TEST(Parser, StopwordRemovalCanBeDisabled) {
  Collection docs = {{"A", "the the cat"}};
  ParserOptions opts;
  opts.remove_stopwords = false;
  auto tdm = build_term_document_matrix(docs, opts);
  ASSERT_TRUE(tdm.vocabulary.find("the").has_value());
  EXPECT_EQ(tdm.counts.at(*tdm.vocabulary.find("the"), 0), 2.0);
}

TEST(Parser, CountsTermFrequencies) {
  Collection docs = {{"A", "fast fast fast cell"}};
  auto tdm = build_term_document_matrix(docs, {});
  EXPECT_EQ(tdm.counts.at(*tdm.vocabulary.find("fast"), 0), 3.0);
  EXPECT_EQ(tdm.counts.at(*tdm.vocabulary.find("cell"), 0), 1.0);
}

TEST(Parser, AlphabeticalRowOrder) {
  Collection docs = {{"A", "zebra apple mango"}};
  auto tdm = build_term_document_matrix(docs, {});
  EXPECT_EQ(tdm.vocabulary.term(0), "apple");
  EXPECT_EQ(tdm.vocabulary.term(1), "mango");
  EXPECT_EQ(tdm.vocabulary.term(2), "zebra");
}

TEST(Parser, DocLabelsPreserved) {
  auto tdm = build_term_document_matrix(lsi::data::med_topics(),
                                        paper_options());
  ASSERT_EQ(tdm.doc_labels.size(), 14u);
  EXPECT_EQ(tdm.doc_labels.front(), "M1");
  EXPECT_EQ(tdm.doc_labels.back(), "M14");
}

TEST(Parser, EmptyCollection) {
  auto tdm = build_term_document_matrix({}, {});
  EXPECT_EQ(tdm.vocabulary.size(), 0u);
  EXPECT_EQ(tdm.counts.cols(), 0u);
}

// ---------------------------------------------------------------------------
// Parity with the map-based parser build_term_document_matrix replaced
// (kept here as the reference): per-document std::map term counts, a global
// std::map of document frequencies, a vocabulary lookup per (document, term)
// and a CooBuilder.

TermDocumentMatrix map_based_parser(const Collection& docs,
                                    const ParserOptions& opts) {
  std::vector<std::vector<std::string>> doc_tokens(docs.size());
  std::unordered_set<std::string> universe;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    std::vector<std::string> tokens = tokenize(docs[d].body, opts.tokenizer);
    if (opts.remove_stopwords) {
      std::erase_if(tokens,
                    [](const std::string& t) { return is_stopword(t); });
    }
    if (opts.stem) {
      for (auto& t : tokens) t = porter_stem(t);
    }
    if (opts.add_bigrams && tokens.size() >= 2) {
      const std::size_t unigrams = tokens.size();
      for (std::size_t i = 0; i + 1 < unigrams; ++i) {
        tokens.push_back(tokens[i] + "_" + tokens[i + 1]);
      }
    }
    doc_tokens[d] = std::move(tokens);
    universe.insert(doc_tokens[d].begin(), doc_tokens[d].end());
  }
  const auto fold = [&](const std::string& token) {
    if (!opts.fold_plurals || token.size() < 4 || token.back() != 's') {
      return token;
    }
    std::string stem = token.substr(0, token.size() - 1);
    return universe.count(stem) ? stem : token;
  };
  std::vector<std::map<std::string, double>> tf(docs.size());
  std::map<std::string, std::size_t> df;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (const auto& raw : doc_tokens[d]) tf[d][fold(raw)] += 1.0;
    for (const auto& entry : tf[d]) ++df[entry.first];
  }
  std::vector<std::string> terms;
  for (const auto& [term, count] : df) {
    if (count >= opts.min_document_frequency) terms.push_back(term);
  }
  TermDocumentMatrix out;
  out.vocabulary = Vocabulary(std::move(terms));
  for (const auto& d : docs) out.doc_labels.push_back(d.label);
  lsi::la::CooBuilder builder(out.vocabulary.size(), docs.size());
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (const auto& [term, count] : tf[d]) {
      if (auto row = out.vocabulary.find(term)) builder.add(*row, d, count);
    }
  }
  out.counts = builder.to_csc();
  return out;
}

template <class T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

TEST(Parser, MatchesMapBasedParserUnderEveryOptionCombination) {
  Collection docs = lsi::data::med_all_topics();
  // Plurals whose stem occurs (also as bigrams), stop words, words the
  // stemmer conflates, numbers, repeated terms and an empty document.
  docs.push_back({"X1", "The cell cultures of the rats; cell culture tests."});
  docs.push_back({"X2", "Running runners ran; the runner runs 42 tests"});
  docs.push_back({"X3", ""});
  docs.push_back({"X4", "cell cultures cell cultures CELL CULTURE rats rat"});
  docs.push_back({"X5", "connection connections connected connecting"});
  lsi::synth::CorpusSpec spec;
  spec.topics = 3;
  spec.docs_per_topic = 20;
  for (auto& d : lsi::synth::generate_corpus(spec).docs) {
    docs.push_back(std::move(d));
  }

  // min_document_frequency 0 must behave as 1: a term folded away occurs
  // in no document and is not indexed.
  for (int mask = 0; mask < 48; ++mask) {
    ParserOptions opts;
    opts.stem = (mask & 1) != 0;
    opts.add_bigrams = (mask & 2) != 0;
    opts.fold_plurals = (mask & 4) != 0;
    opts.remove_stopwords = (mask & 8) == 0;
    opts.min_document_frequency = static_cast<std::size_t>(mask / 16);
    const TermDocumentMatrix got = build_term_document_matrix(docs, opts);
    const TermDocumentMatrix want = map_based_parser(docs, opts);
    EXPECT_EQ(got.vocabulary.terms(), want.vocabulary.terms()) << mask;
    EXPECT_EQ(got.doc_labels, want.doc_labels) << mask;
    EXPECT_EQ(got.counts.rows(), want.counts.rows()) << mask;
    EXPECT_EQ(got.counts.cols(), want.counts.cols()) << mask;
    EXPECT_EQ(to_vector(got.counts.col_ptr()), to_vector(want.counts.col_ptr()))
        << mask;
    EXPECT_EQ(to_vector(got.counts.row_idx()), to_vector(want.counts.row_idx()))
        << mask;
    EXPECT_EQ(to_vector(got.counts.values()), to_vector(want.counts.values()))
        << mask;
  }
}

TEST(TextToTermVector, MapsQueryWords) {
  auto tdm = build_term_document_matrix(lsi::data::med_topics(),
                                        paper_options());
  // "of children with" are not indexed terms and must vanish, exactly as in
  // the paper's Section 3.1 example.
  auto q = text_to_term_vector(tdm, lsi::data::kQueryText, paper_options());
  double total = 0.0;
  for (double v : q) total += v;
  EXPECT_DOUBLE_EQ(total, 3.0);
  EXPECT_EQ(q[*tdm.vocabulary.find("age")], 1.0);
  EXPECT_EQ(q[*tdm.vocabulary.find("blood")], 1.0);
  EXPECT_EQ(q[*tdm.vocabulary.find("abnormalities")], 1.0);
}

TEST(TextToTermVector, UnknownWordsIgnored) {
  auto tdm = build_term_document_matrix(lsi::data::med_topics(),
                                        paper_options());
  auto q = text_to_term_vector(tdm, "elephant automobile", paper_options());
  for (double v : q) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Frequencies, DocumentAndGlobal) {
  Collection docs = {{"A", "cat cat dog"}, {"B", "cat fish"}};
  auto tdm = build_term_document_matrix(docs, {});
  auto df = document_frequencies(tdm.counts);
  auto gf = global_frequencies(tdm.counts);
  const auto cat = *tdm.vocabulary.find("cat");
  const auto dog = *tdm.vocabulary.find("dog");
  EXPECT_EQ(df[cat], 2u);
  EXPECT_EQ(df[dog], 1u);
  EXPECT_DOUBLE_EQ(gf[cat], 3.0);
  EXPECT_DOUBLE_EQ(gf[dog], 1.0);
}

}  // namespace
