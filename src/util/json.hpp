#pragma once
// The one JSON writer behind every daemon response body and every
// lsi.stats.v1 document: escaping, separators and number text are decided
// here and nowhere else. Output is compact, and there are no options.
//
//   util::JsonWriter json;
//   json.begin_object().key("doc").value(7).key("score").value(0.5);
//   std::string text = std::move(json.end_object()).take();
//   // text == {"doc":7,"score":0.5}

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>

namespace lsi::util {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object member's name; the next call writes its value.
  JsonWriter& key(std::string_view name);

  /// A string, escaped by util::json_escape (invalid UTF-8 becomes U+FFFD).
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  /// The shortest text that reads back to the same double (std::to_chars);
  /// JSON has no inf or NaN, so a non-finite value is written as 0.
  JsonWriter& value(double v);
  template <std::integral Int>
  JsonWriter& value(Int v) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }

  /// Moves the text out; a complete document once every container is closed.
  std::string take() && { return std::move(out_); }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  /// Appends `text` as the next value, after a comma if one is due.
  JsonWriter& raw(std::string_view text);

  std::string out_;
  std::string open_;        ///< one '{' or '[' per open container
  bool first_ = true;       ///< the innermost container has no element yet
  bool after_key_ = false;  ///< a key awaits its value
};

}  // namespace lsi::util
