#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

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

std::optional<std::size_t> parse_size(std::string_view s) {
  std::size_t value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_finite(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
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

namespace {

/// Length of the well-formed UTF-8 sequence that starts `s` (Unicode Table
/// 3-7: no overlongs, no surrogates, nothing above U+10FFFF), or minus the
/// length of its maximal invalid subpart.
int utf8_length(std::string_view s) {
  const unsigned lead = static_cast<unsigned char>(s[0]);
  if (lead < 0xC2 || lead > 0xF4) return -1;
  const std::size_t len = lead >= 0xF0 ? 4 : lead >= 0xE0 ? 3 : 2;
  unsigned lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
  unsigned hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
  for (std::size_t i = 1; i < len; ++i, lo = 0x80, hi = 0xBF) {
    const unsigned b = i < s.size() ? static_cast<unsigned char>(s[i]) : 0;
    if (b < lo || b > hi) return -static_cast<int>(i);
  }
  return static_cast<int>(len);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x80) {
      const int len = utf8_length(s.substr(i));
      if (len > 0) {
        out.append(s, i, static_cast<std::size_t>(len));
      } else {
        out += "\\ufffd";
      }
      i += static_cast<std::size_t>(std::abs(len));
      continue;
    }
    ++i;
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
