#pragma once
// SMART-style English stop-word list. The paper's example treats common
// function words ("of", "children", "with" ... actually only function words)
// as non-indexable; content words are filtered by document frequency instead.

#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "text/term_hash.hpp"

namespace lsi::text {

/// A set of terms that looks a std::string_view up without a copy.
using TermSet = std::unordered_set<std::string, TermHash, std::equal_to<>>;

/// Shared default stop list (lower-case). Covers standard English function
/// words; content words are never stop words.
const TermSet& default_stopwords();

/// Membership test against the default list; allocates nothing.
bool is_stopword(std::string_view token);

}  // namespace lsi::text
