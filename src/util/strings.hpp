#pragma once
// ASCII string helpers shared by the tokenizer, the table writers, the
// JSON writer (util/json.hpp) and every parser of numeric request values
// and command-line flags.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lsi::util {

/// Lower-cases ASCII letters in place and returns the argument.
std::string to_lower(std::string s);

/// Splits on any of the delimiter characters; empty fields are dropped.
std::vector<std::string> split(std::string_view s, std::string_view delims);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// True if every character is an ASCII letter.
bool is_alpha(std::string_view s);

/// Joins the pieces with `sep` between them.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Nonnegative decimal integer: every character a digit and the value
/// representable as std::size_t; nullopt otherwise (empty, a sign, trailing
/// text, overflow).
std::optional<std::size_t> parse_size(std::string_view s);

/// Finite decimal number, the whole of `s`; nullopt when empty, not
/// entirely a number, NaN, or infinite (an overflowing literal such as
/// 1e400 included).
std::optional<double> parse_finite(std::string_view s);

/// JSON string escaping (RFC 8259): quotes, backslash, and control
/// characters (\n, \r, \t by name, the rest as \u00XX). Well-formed UTF-8
/// passes through byte for byte; each maximal invalid subsequence becomes
/// \ufffd. The body of a JSON string literal, without the surrounding quotes.
std::string json_escape(std::string_view s);

}  // namespace lsi::util
