#include "text/vocabulary.hpp"

namespace lsi::text {

Vocabulary::Vocabulary(std::vector<std::string> terms)
    : terms_(std::move(terms)) {
  index_.reserve(terms_.size());
  for (lsi::la::index_t i = 0; i < terms_.size(); ++i) index_[terms_[i]] = i;
}

lsi::la::index_t Vocabulary::add(std::string term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  const lsi::la::index_t id = terms_.size();
  index_.emplace(term, id);
  terms_.push_back(std::move(term));
  return id;
}

std::optional<lsi::la::index_t> Vocabulary::find(std::string_view term) const {
  auto it = index_.find(term);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace lsi::text
