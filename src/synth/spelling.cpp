#include "synth/spelling.hpp"

#include "lsi/retrieval.hpp"

namespace lsi::synth {

std::vector<std::string> word_ngrams(const std::string& word) {
  std::vector<std::string> out;
  const std::string padded = "#" + word + "#";
  for (std::size_t i = 0; i + 2 <= padded.size(); ++i) {
    out.push_back(padded.substr(i, 2));
  }
  for (std::size_t i = 0; i + 3 <= padded.size(); ++i) {
    out.push_back(padded.substr(i, 3));
  }
  return out;
}

SpellingModel build_spelling_model(const std::vector<std::string>& lexicon,
                                   lsi::la::index_t k) {
  SpellingModel model;
  for (const auto& w : lexicon) model.lexicon.add(w);

  // First pass: collect the n-gram universe.
  std::vector<std::vector<std::string>> grams(lexicon.size());
  for (std::size_t j = 0; j < lexicon.size(); ++j) {
    grams[j] = word_ngrams(lexicon[j]);
    for (const auto& g : grams[j]) model.ngrams.add(g);
  }

  lsi::la::CooBuilder builder(model.ngrams.size(), lexicon.size());
  for (std::size_t j = 0; j < lexicon.size(); ++j) {
    for (const auto& g : grams[j]) {
      builder.add(*model.ngrams.find(g), j, 1.0);
    }
  }
  model.ngram_by_word = builder.to_csc();
  model.space = core::try_build_semantic_space(model.ngram_by_word, k).value();
  return model;
}

std::vector<SpellingSuggestion> suggest_corrections(
    const SpellingModel& model, const std::string& input, std::size_t top) {
  lsi::la::Vector q(model.ngrams.size(), 0.0);
  for (const auto& g : word_ngrams(input)) {
    if (auto row = model.ngrams.find(g)) q[*row] += 1.0;
  }
  core::SearchOptions opts;
  opts.z = top;
  std::vector<SpellingSuggestion> out;
  for (const core::ScoredDoc& sd : core::retrieve(model.space, q, opts)) {
    out.push_back({model.lexicon.term(sd.doc), sd.cosine});
  }
  return out;
}

}  // namespace lsi::synth
