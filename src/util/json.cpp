#include "util/json.hpp"

#include <cassert>
#include <cmath>

#include "util/strings.hpp"

namespace lsi::util {

JsonWriter& JsonWriter::raw(std::string_view text) {
  // A value belongs after a key, in an array, or alone at the top level.
  assert(open_.empty() ? out_.empty() : (open_.back() == '[') != after_key_);
  if (!after_key_ && !first_) out_ += ',';
  first_ = after_key_ = false;
  out_ += text;
  return *this;
}

JsonWriter& JsonWriter::open(char bracket) {
  raw({&bracket, 1});
  open_ += bracket;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  assert(!after_key_ && !open_.empty() &&
         open_.back() == (bracket == '}' ? '{' : '['));
  open_.pop_back();
  out_ += bracket;
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  assert(!after_key_ && !open_.empty() && open_.back() == '{');
  if (!first_) out_ += ',';
  first_ = false;
  after_key_ = true;
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  raw("\"");
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return raw("0");
  char buf[32];  // a shortest double takes at most 24 characters
  return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

}  // namespace lsi::util
