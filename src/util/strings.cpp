#include "util/strings.hpp"

#include <cctype>

namespace lsi::util {

std::string to_lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_alpha(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xf]);
          out.push_back(hex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace lsi::util
