#pragma once
// Bidirectional term <-> row-index mapping for a term-document matrix.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "la/dense.hpp"

namespace lsi::text {

class Vocabulary {
 public:
  Vocabulary() = default;

  /// Builds from an ordered term list (index = position).
  explicit Vocabulary(std::vector<std::string> terms);

  /// Adds a term if absent; returns its index either way.
  lsi::la::index_t add(std::string term);

  /// Index of a term, if present.
  std::optional<lsi::la::index_t> find(std::string_view term) const;

  const std::string& term(lsi::la::index_t i) const { return terms_[i]; }
  const std::vector<std::string>& terms() const noexcept { return terms_; }
  lsi::la::index_t size() const noexcept { return terms_.size(); }

 private:
  /// Hashes std::string and std::string_view alike, so find() can look a
  /// view up without building a string (heterogeneous lookup).
  struct TermHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> terms_;
  std::unordered_map<std::string, lsi::la::index_t, TermHash,
                     std::equal_to<>>
      index_;
};

}  // namespace lsi::text
