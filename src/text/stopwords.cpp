#include "text/stopwords.hpp"

namespace lsi::text {

const TermSet& default_stopwords() {
  static const TermSet words = {
      // articles / determiners
      "a", "an", "the", "this", "that", "these", "those", "each", "every",
      "either", "neither", "some", "any", "all", "both", "such", "no",
      // pronouns
      "i", "me", "my", "mine", "myself", "we", "us", "our", "ours",
      "ourselves", "you", "your", "yours", "yourself", "he", "him", "his",
      "himself", "she", "her", "hers", "herself", "it", "its", "itself",
      "they", "them", "their", "theirs", "themselves", "who", "whom",
      "whose", "which", "what", "whatever", "whoever",
      // copulas / auxiliaries
      "am", "is", "are", "was", "were", "be", "been", "being", "do", "does",
      "did", "doing", "have", "has", "had", "having", "can", "could",
      "will", "would", "shall", "should", "may", "might", "must", "ought",
      // prepositions
      "of", "in", "on", "at", "by", "for", "with", "about", "against",
      "between", "into", "through", "during", "before", "after", "above",
      "below", "to", "from", "up", "down", "out", "off", "over", "under",
      "within", "without", "upon", "toward", "towards", "among", "amongst",
      "along", "across", "behind", "beyond", "near", "since", "until",
      "unto", "via", "per",
      // conjunctions / particles
      "and", "but", "or", "nor", "so", "yet", "if", "then", "else", "when",
      "whenever", "where", "wherever", "while", "because", "as", "than",
      "though", "although", "whether", "unless", "once", "also", "too",
      "very", "just", "only", "not", "own", "same", "other", "another",
      "again", "further", "here", "there", "how", "why", "now", "ever",
      "never", "always",
      // frequent light verbs / adverbs that carry no topical content
      "become", "becomes", "became", "get", "gets", "got", "like", "well",
      "even", "still", "however", "therefore", "thus", "hence", "etc",
      "respectively", "more", "most", "less", "least", "many", "much",
      "few", "several",
  };
  return words;
}

bool is_stopword(std::string_view token) {
  return default_stopwords().contains(token);
}

}  // namespace lsi::text
