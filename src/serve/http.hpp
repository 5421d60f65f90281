#pragma once
// Dependency-free HTTP/1.1 wire layer for the LSI query daemon
// (docs/SERVING.md): request model, an incremental request parser that
// consumes bytes as they arrive off a non-blocking socket, and response
// serialization with identity (Content-Length) or chunked transfer coding.
//
// The parser is a byte-at-a-time-safe state machine in the pazpar2
// `http.c` tradition: feed() accepts arbitrary fragments (a request split
// at every byte boundary parses identically to one delivered whole), a
// completed request is take()n and the machine re-arms on the leftover
// bytes, so pipelined requests stream out one take() at a time. Protocol
// violations park the parser in a failed state carrying the HTTP status the
// server should answer with before closing:
//
//   400  malformed request line / header, bad Content-Length
//   405  syntactically valid but unsupported method (allowed: GET, POST,
//        DELETE — the command surface of docs/SERVING.md)
//   413  body larger than Limits::max_body_bytes
//   414  request line larger than Limits::max_request_line
//   431  header block larger than Limits::max_header_bytes
//   501  Transfer-Encoding on a request (the daemon accepts identity only)
//   505  HTTP version other than 1.0 / 1.1

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lsi::serve {

/// Canonical reason phrase for the status codes the daemon emits.
std::string_view status_reason(int status) noexcept;

/// Percent-decodes %XX escapes and '+' (as space, per form encoding).
/// Malformed escapes are passed through verbatim rather than rejected.
std::string url_decode(std::string_view s);

/// One parsed request. Header names are lower-cased at parse time; query
/// parameter keys and values are percent-decoded.
struct HttpRequest {
  std::string method;   ///< "GET" / "POST" / "DELETE"
  std::string target;   ///< raw request target, e.g. "/search?q=x%20y"
  std::string path;     ///< decoded path component, e.g. "/search"
  std::vector<std::pair<std::string, std::string>> query;  ///< decoded params
  int version_minor = 1;  ///< 1 for HTTP/1.1, 0 for HTTP/1.0
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
  /// Connection header overrides either way.
  bool keep_alive = true;

  /// First header with this (case-insensitive) name, or empty view.
  std::string_view header(std::string_view name) const noexcept;
  /// First query parameter with this name, or `fallback`.
  std::string_view param(std::string_view name,
                         std::string_view fallback = {}) const noexcept;
  bool has_param(std::string_view name) const noexcept;
};

/// Incremental HTTP/1.1 request parser. One instance per connection; after
/// take() it is re-armed for the next pipelined request automatically.
class HttpParser {
 public:
  struct Limits {
    std::size_t max_request_line = 8 * 1024;
    std::size_t max_header_bytes = 16 * 1024;
    std::size_t max_body_bytes = 1 * 1024 * 1024;
  };

  HttpParser() : HttpParser(Limits{}) {}
  explicit HttpParser(Limits limits);

  /// Appends bytes from the wire and advances the state machine as far as
  /// they allow. No-op once failed() (the connection is doomed anyway).
  void feed(std::string_view data);

  /// A full request is parsed and ready to take().
  bool complete() const noexcept { return state_ == State::kComplete; }
  /// Protocol violation: answer with error_status() and close.
  bool failed() const noexcept { return state_ == State::kError; }
  int error_status() const noexcept { return error_status_; }
  const std::string& error_reason() const noexcept { return error_reason_; }

  /// Moves the completed request out and restarts the machine on whatever
  /// bytes followed it (pipelining), which may immediately complete() again.
  HttpRequest take();

  /// Bytes buffered but not yet consumed by a completed request.
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  enum class State { kRequestLine, kHeaders, kBody, kComplete, kError };

  void advance();
  bool parse_request_line(std::string_view line);
  bool parse_header_line(std::string_view line);
  void finish_headers();
  void fail(int status, std::string reason);

  Limits limits_;
  State state_ = State::kRequestLine;
  std::string buffer_;        ///< unconsumed bytes
  std::size_t header_bytes_ = 0;
  std::size_t body_expected_ = 0;
  HttpRequest request_;
  int error_status_ = 400;
  std::string error_reason_;
};

/// One response under assembly. serialize() renders the status line,
/// headers, and the body under the chosen transfer coding.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Chunked transfer coding instead of Content-Length (the /stats endpoint
  /// streams this way; everything else is identity).
  bool chunked = false;
  bool keep_alive = true;

  void set_header(std::string name, std::string value) {
    headers.emplace_back(std::move(name), std::move(value));
  }
};

/// Renders the complete wire form. Content-Type defaults to
/// application/json when a body is present and none was set; Content-Length
/// or Transfer-Encoding: chunked and the Connection header are always
/// emitted.
std::string serialize(const HttpResponse& response);

/// Parses the query string (everything after '?') into decoded key/value
/// pairs. Exposed for tests.
std::vector<std::pair<std::string, std::string>> parse_query_string(
    std::string_view qs);

}  // namespace lsi::serve
