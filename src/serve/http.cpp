#include "serve/http.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace lsi::serve {

namespace {

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// RFC 9110 token characters (method names, header field names).
bool is_token_char(char c) noexcept {
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool is_token(std::string_view s) noexcept {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), is_token_char);
}

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string to_lower_copy(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default:  return "Unknown";
  }
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_digit(s[i + 1]);
      const int lo = hex_digit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_query_string(
    std::string_view qs) {
  std::vector<std::pair<std::string, std::string>> params;
  std::size_t pos = 0;
  while (pos <= qs.size()) {
    const std::size_t amp = std::min(qs.find('&', pos), qs.size());
    const std::string_view piece = qs.substr(pos, amp - pos);
    if (!piece.empty()) {
      const std::size_t eq = piece.find('=');
      if (eq == std::string_view::npos) {
        params.emplace_back(url_decode(piece), "");
      } else {
        params.emplace_back(url_decode(piece.substr(0, eq)),
                            url_decode(piece.substr(eq + 1)));
      }
    }
    if (amp == qs.size()) break;
    pos = amp + 1;
  }
  return params;
}

std::string_view HttpRequest::header(std::string_view name) const noexcept {
  for (const auto& [n, v] : headers) {
    if (iequals(n, name)) return v;
  }
  return {};
}

std::string_view HttpRequest::param(std::string_view name,
                                    std::string_view fallback) const noexcept {
  for (const auto& [n, v] : query) {
    if (n == name) return v;
  }
  return fallback;
}

bool HttpRequest::has_param(std::string_view name) const noexcept {
  for (const auto& [n, v] : query) {
    if (n == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

HttpParser::HttpParser(Limits limits) : limits_(limits) {}

void HttpParser::feed(std::string_view data) {
  if (state_ == State::kError) return;
  buffer_.append(data);
  advance();
}

void HttpParser::fail(int status, std::string reason) {
  state_ = State::kError;
  error_status_ = status;
  error_reason_ = std::move(reason);
}

HttpRequest HttpParser::take() {
  HttpRequest out = std::move(request_);
  request_ = HttpRequest{};
  state_ = State::kRequestLine;
  header_bytes_ = 0;
  body_expected_ = 0;
  // Re-run on leftover bytes: a pipelined successor may already be whole.
  advance();
  return out;
}

void HttpParser::advance() {
  for (;;) {
    switch (state_) {
      case State::kRequestLine: {
        const std::size_t eol = buffer_.find('\n');
        if (eol == std::string::npos) {
          if (buffer_.size() > limits_.max_request_line) {
            fail(414, "request line exceeds " +
                          std::to_string(limits_.max_request_line) + " bytes");
          }
          return;
        }
        if (eol > limits_.max_request_line) {
          fail(414, "request line exceeds " +
                        std::to_string(limits_.max_request_line) + " bytes");
          return;
        }
        std::string_view line(buffer_.data(), eol);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        // RFC 9112 tolerance: skip blank line(s) before the request line.
        if (line.empty()) {
          buffer_.erase(0, eol + 1);
          continue;
        }
        if (!parse_request_line(line)) return;  // failed
        buffer_.erase(0, eol + 1);
        state_ = State::kHeaders;
        continue;
      }
      case State::kHeaders: {
        const std::size_t eol = buffer_.find('\n');
        if (eol == std::string::npos) {
          if (header_bytes_ + buffer_.size() > limits_.max_header_bytes) {
            fail(431, "header block exceeds " +
                          std::to_string(limits_.max_header_bytes) + " bytes");
          }
          return;
        }
        header_bytes_ += eol + 1;
        if (header_bytes_ > limits_.max_header_bytes) {
          fail(431, "header block exceeds " +
                        std::to_string(limits_.max_header_bytes) + " bytes");
          return;
        }
        std::string_view line(buffer_.data(), eol);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (line.empty()) {
          buffer_.erase(0, eol + 1);
          finish_headers();
          if (state_ == State::kError) return;
          continue;
        }
        if (!parse_header_line(line)) return;  // failed
        buffer_.erase(0, eol + 1);
        continue;
      }
      case State::kBody: {
        if (buffer_.size() < body_expected_) return;
        request_.body = buffer_.substr(0, body_expected_);
        buffer_.erase(0, body_expected_);
        state_ = State::kComplete;
        return;
      }
      case State::kComplete:
      case State::kError:
        return;
    }
  }
}

bool HttpParser::parse_request_line(std::string_view line) {
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    fail(400, "malformed request line");
    return false;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);

  if (!is_token(method)) {
    fail(400, "malformed method token");
    return false;
  }
  if (target.empty() || target.find(' ') != std::string_view::npos) {
    fail(400, "malformed request target");
    return false;
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
    request_.keep_alive = true;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
    request_.keep_alive = false;
  } else if (version.substr(0, 5) == "HTTP/") {
    fail(505, "unsupported HTTP version");
    return false;
  } else {
    fail(400, "malformed request line");
    return false;
  }
  if (method != "GET" && method != "POST" && method != "DELETE") {
    fail(405, "method not supported: " + std::string(method));
    return false;
  }
  request_.method = std::string(method);
  request_.target = std::string(target);
  const std::size_t q = target.find('?');
  request_.path = url_decode(target.substr(0, q));
  if (q != std::string_view::npos) {
    request_.query = parse_query_string(target.substr(q + 1));
  }
  return true;
}

bool HttpParser::parse_header_line(std::string_view line) {
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    fail(400, "malformed header line");
    return false;
  }
  const std::string_view name = line.substr(0, colon);
  if (!is_token(name)) {
    fail(400, "malformed header name");
    return false;
  }
  std::string_view value = line.substr(colon + 1);
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  request_.headers.emplace_back(to_lower_copy(name), std::string(value));
  return true;
}

void HttpParser::finish_headers() {
  if (!request_.header("transfer-encoding").empty()) {
    fail(501, "transfer codings are not accepted on requests");
    return;
  }
  const std::string_view cl = request_.header("content-length");
  body_expected_ = 0;
  if (!cl.empty()) {
    std::size_t parsed = 0;
    for (char c : cl) {
      if (c < '0' || c > '9') {
        fail(400, "malformed Content-Length");
        return;
      }
      parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
      if (parsed > limits_.max_body_bytes) {
        fail(413, "body exceeds " + std::to_string(limits_.max_body_bytes) +
                      " bytes");
        return;
      }
    }
    body_expected_ = parsed;
  }
  const std::string_view conn = request_.header("connection");
  if (iequals(conn, "close")) {
    request_.keep_alive = false;
  } else if (iequals(conn, "keep-alive")) {
    request_.keep_alive = true;
  }
  state_ = body_expected_ > 0 ? State::kBody : State::kComplete;
}

// ---------------------------------------------------------------------------
// Response serialization
// ---------------------------------------------------------------------------

std::string serialize(const HttpResponse& response) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_reason(response.status);
  out += "\r\n";

  bool has_type = false;
  for (const auto& [name, value] : response.headers) {
    if (iequals(name, "Content-Type")) has_type = true;
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!has_type && !response.body.empty()) {
    out += "Content-Type: application/json\r\n";
  }
  out += response.keep_alive ? "Connection: keep-alive\r\n"
                             : "Connection: close\r\n";

  if (response.chunked) {
    out += "Transfer-Encoding: chunked\r\n\r\n";
    // One chunk per 4 KiB window, then the terminal zero chunk.
    constexpr std::size_t kChunk = 4096;
    std::size_t pos = 0;
    while (pos < response.body.size()) {
      const std::size_t n = std::min(kChunk, response.body.size() - pos);
      char size_line[16];
      const int len = std::snprintf(size_line, sizeof size_line, "%zx\r\n", n);
      out.append(size_line, static_cast<std::size_t>(len));
      out.append(response.body, pos, n);
      out += "\r\n";
      pos += n;
    }
    out += "0\r\n\r\n";
  } else {
    out += "Content-Length: ";
    out += std::to_string(response.body.size());
    out += "\r\n\r\n";
    out += response.body;
  }
  return out;
}

}  // namespace lsi::serve
