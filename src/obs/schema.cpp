#include "obs/schema.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace lsi::obs {

namespace {

// --- Minimal JSON value + recursive-descent parser. Only what the schema
// check needs: objects, arrays, strings, numbers, booleans, null. Duplicate
// object keys keep the last value (like most parsers).

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonObject>, std::shared_ptr<JsonArray>>
      v = nullptr;

  bool is_number() const { return std::holds_alternative<double>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  const JsonObject* object() const {
    auto* p = std::get_if<std::shared_ptr<JsonObject>>(&v);
    return p ? p->get() : nullptr;
  }
  const JsonArray* array() const {
    auto* p = std::get_if<std::shared_ptr<JsonArray>>(&v);
    return p ? p->get() : nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Parses one document; error() is non-empty on failure.
  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (error_.empty() && pos_ != text_.size()) {
      fail("trailing characters after document");
    }
    return v;
  }

  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (depth_ > 64) {
      fail("nesting too deep");
      return {};
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') {
      JsonValue v;
      if (literal("true")) {
        v.v = true;
      } else if (literal("false")) {
        v.v = false;
      } else {
        fail("bad literal");
      }
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) fail("bad literal");
      return {};
    }
    return parse_number();
  }

  JsonValue parse_string() {
    JsonValue v;
    if (!consume('"')) {
      fail("expected string");
      return v;
    }
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Validated but not decoded; the schema never inspects escaped
            // content.
            for (int i = 0; i < 4 && pos_ < text_.size(); ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("bad \\u escape");
                return v;
              }
              ++pos_;
            }
            out += '?';
            break;
          default:
            fail("bad escape");
            return v;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return v;
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return v;
    }
    ++pos_;  // closing quote
    v.v = std::move(out);
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    JsonValue v;
    if (pos_ == start) {
      fail("expected value");
      return v;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("malformed number '" + token + "'");
      return v;
    }
    v.v = d;
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    auto obj = std::make_shared<JsonObject>();
    consume('{');
    ++depth_;
    skip_ws();
    if (!consume('}')) {
      while (error_.empty()) {
        JsonValue key = parse_string();
        if (!error_.empty()) break;
        if (!consume(':')) {
          fail("expected ':'");
          break;
        }
        (*obj)[std::get<std::string>(key.v)] = parse_value();
        if (consume(',')) continue;
        if (consume('}')) break;
        fail("expected ',' or '}'");
      }
    }
    --depth_;
    v.v = std::move(obj);
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    auto arr = std::make_shared<JsonArray>();
    consume('[');
    ++depth_;
    skip_ws();
    if (!consume(']')) {
      while (error_.empty()) {
        arr->push_back(parse_value());
        if (consume(',')) continue;
        if (consume(']')) break;
        fail("expected ',' or ']'");
      }
    }
    --depth_;
    v.v = std::move(arr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

// --- lsi.stats.v1 structural checks.

Status require_numeric_map(const JsonValue* v, const std::string& field,
                           bool integral) {
  if (v == nullptr) return Status::Ok();  // optional section
  const JsonObject* obj = v->object();
  if (obj == nullptr) {
    return Status::DataLoss("\"" + field + "\" must be an object");
  }
  for (const auto& [key, val] : *obj) {
    if (!val.is_number()) {
      return Status::DataLoss("\"" + field + "\"[\"" + key +
                              "\"] must be a number");
    }
    if (integral) {
      const double d = std::get<double>(val.v);
      if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d))) {
        return Status::DataLoss("\"" + field + "\"[\"" + key +
                                "\"] must be a nonnegative integer");
      }
    }
  }
  return Status::Ok();
}

Status require_record_array(const JsonValue* v, const std::string& field,
                            const std::vector<std::string>& numeric_keys) {
  if (v == nullptr) return Status::Ok();  // optional section
  const JsonArray* arr = v->array();
  if (arr == nullptr) {
    return Status::DataLoss("\"" + field + "\" must be an array");
  }
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const JsonObject* rec = (*arr)[i].object();
    const std::string where =
        "\"" + field + "\"[" + std::to_string(i) + "]";
    if (rec == nullptr) return Status::DataLoss(where + " must be an object");
    const auto name = rec->find("name");
    if (name == rec->end() || !name->second.is_string()) {
      return Status::DataLoss(where + " needs a string \"name\"");
    }
    for (const std::string& key : numeric_keys) {
      const auto it = rec->find(key);
      if (it == rec->end() || !it->second.is_number()) {
        return Status::DataLoss(where + " needs numeric \"" + key + "\"");
      }
    }
  }
  return Status::Ok();
}

const JsonValue* find(const JsonObject& obj, const std::string& key) {
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

// --- /search response checks.

enum class Kind { kNumber, kString, kArray, kBool };

struct Field {
  const char* name;
  Kind kind;
};

bool has_kind(const JsonValue& v, Kind kind) {
  switch (kind) {
    case Kind::kNumber: return v.is_number();
    case Kind::kString: return v.is_string();
    case Kind::kArray: return v.array() != nullptr;
    case Kind::kBool: return std::holds_alternative<bool>(v.v);
  }
  return false;
}

/// OK when `v` is an object holding exactly `fields`, each of its kind.
Status require_exact_object(const JsonValue& v,
                            const std::vector<Field>& fields,
                            const std::string& where) {
  const JsonObject* obj = v.object();
  if (obj == nullptr) return Status::DataLoss(where + " must be an object");
  for (const Field& f : fields) {
    const JsonValue* value = find(*obj, f.name);
    if (value == nullptr || !has_kind(*value, f.kind)) {
      return Status::DataLoss(where + " needs a well-typed \"" +
                              std::string(f.name) + "\"");
    }
  }
  for (const auto& [key, value] : *obj) {
    bool known = false;
    for (const Field& f : fields) known = known || key == f.name;
    if (!known) {
      return Status::DataLoss(where + " has unexpected key \"" + key + "\"");
    }
  }
  return Status::Ok();
}

/// Parses `text` into `doc`; DataLoss unless it is valid JSON.
Status parse_document(std::string_view text, JsonValue& doc) {
  Parser parser(text);
  doc = parser.parse();
  if (!parser.error().empty()) {
    return Status::DataLoss("not valid JSON: " + parser.error());
  }
  return Status::Ok();
}

}  // namespace

Status validate_json(std::string_view text) {
  JsonValue doc;
  return parse_document(text, doc);
}

Status validate_search_json(std::string_view text, bool session) {
  JsonValue doc;
  if (Status s = parse_document(text, doc); !s.ok()) return s;
  std::vector<Field> top = {{"results", Kind::kArray},
                            {"facets", Kind::kArray},
                            {"generations", Kind::kArray}};
  if (session) {
    top.insert(top.end(), {{"session", Kind::kString},
                           {"cursor", Kind::kNumber},
                           {"total", Kind::kNumber},
                           {"more", Kind::kBool}});
  }
  if (Status s = require_exact_object(doc, top, "response"); !s.ok()) {
    return s;
  }
  const JsonObject& root = *doc.object();
  const JsonArray& results = *find(root, "results")->array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (Status s = require_exact_object(
            results[i],
            {{"doc", Kind::kNumber},
             {"label", Kind::kString},
             {"score", Kind::kNumber},
             {"cosine", Kind::kNumber},
             {"shard", Kind::kNumber},
             {"duplicates", Kind::kArray}},
            "\"results\"[" + std::to_string(i) + "]");
        !s.ok()) {
      return s;
    }
  }
  const JsonArray& facets = *find(root, "facets")->array();
  for (std::size_t i = 0; i < facets.size(); ++i) {
    if (Status s = require_exact_object(
            facets[i], {{"term", Kind::kString}, {"weight", Kind::kNumber}},
            "\"facets\"[" + std::to_string(i) + "]");
        !s.ok()) {
      return s;
    }
  }
  for (const JsonValue& g : *find(root, "generations")->array()) {
    if (!g.is_number()) {
      return Status::DataLoss("\"generations\" must hold numbers");
    }
  }
  return Status::Ok();
}

Status validate_stats_json(std::string_view text) {
  JsonValue doc;
  if (Status s = parse_document(text, doc); !s.ok()) return s;
  const JsonObject* root = doc.object();
  if (root == nullptr) {
    return Status::DataLoss("top level must be an object");
  }

  const JsonValue* schema = find(*root, "schema");
  if (schema == nullptr || !schema->is_string()) {
    return Status::DataLoss("missing string \"schema\"");
  }
  if (std::get<std::string>(schema->v) != "lsi.stats.v1") {
    return Status::DataLoss("unsupported schema \"" +
                            std::get<std::string>(schema->v) + "\"");
  }
  const JsonValue* name = find(*root, "name");
  if (name == nullptr || !name->is_string()) {
    return Status::DataLoss("missing string \"name\"");
  }

  if (Status s = require_numeric_map(find(*root, "params"), "params",
                                     /*integral=*/false);
      !s.ok()) {
    return s;
  }
  if (Status s = require_numeric_map(find(*root, "counters"), "counters",
                                     /*integral=*/true);
      !s.ok()) {
    return s;
  }
  if (Status s = require_numeric_map(find(*root, "gauges"), "gauges",
                                     /*integral=*/false);
      !s.ok()) {
    return s;
  }
  if (Status s = require_record_array(
          find(*root, "spans"), "spans",
          {"count", "total_s", "self_s", "p50_s", "p95_s", "p99_s"});
      !s.ok()) {
    return s;
  }
  if (Status s = require_record_array(find(*root, "flops"), "flops",
                                      {"predicted", "measured"});
      !s.ok()) {
    return s;
  }
  return Status::Ok();
}

}  // namespace lsi::obs
