#pragma once
// Transparent string hash: std::string and std::string_view hash alike, so a
// hash container keyed by std::string (with std::equal_to<>) can look a view
// up without building a string (heterogeneous lookup).

#include <cstddef>
#include <functional>
#include <string_view>

namespace lsi::text {

struct TermHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace lsi::text
