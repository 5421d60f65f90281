#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace lsi::serve {

namespace {

/// Largest accepted deadline_ms: one day. Anything longer is no deadline
/// in practice, and bounding it keeps `now + deadline` far from overflowing
/// the clock's signed nanosecond count.
constexpr std::size_t kMaxDeadlineMs = 86'400'000;

/// Nonnegative decimal integer parameter; nullopt when absent, not all
/// digits, or too large for std::size_t.
std::optional<std::size_t> parse_size(std::string_view s) {
  std::size_t value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Finite decimal number parameter; nullopt when absent, not entirely a
/// number, NaN, or infinite (an overflowing literal such as 1e400 included).
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

/// Appends `v` formatted like printf's %.6g.
void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 6)
                      .ptr);
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Parses the /search retrieval knobs — nprobe, recall, exact, deadline_ms —
/// into `opts`. Returns false (with a precise message in `error` for the 400
/// body) on an invalid value or combination. Absent knobs leave the
/// SearchOptions defaults: kAuto search, the library's recall target.
bool parse_search_knobs(const HttpRequest& request, core::SearchOptions& opts,
                        std::string& error) {
  const std::string_view nprobe = request.param("nprobe");
  const std::string_view recall = request.param("recall");
  const std::string_view exact = request.param("exact");
  const std::string_view deadline_ms = request.param("deadline_ms");

  if (!exact.empty() && exact != "0" && exact != "1") {
    error = "exact must be 0 or 1";
    return false;
  }
  const bool want_exact = exact == "1";
  if (want_exact && !nprobe.empty()) {
    error = "nprobe cannot be combined with exact=1";
    return false;
  }
  if (want_exact && !recall.empty()) {
    error = "recall cannot be combined with exact=1";
    return false;
  }
  if (!nprobe.empty() && !recall.empty()) {
    error = "nprobe and recall are mutually exclusive; pass one";
    return false;
  }
  if (want_exact) opts.search = core::SearchMode::kExact;
  if (!nprobe.empty()) {
    const std::optional<std::size_t> v = parse_size(nprobe);
    if (!v || *v == 0) {
      error = "nprobe must be a positive integer";
      return false;
    }
    opts.nprobe = *v;
  }
  if (!recall.empty()) {
    const std::optional<double> v = parse_finite(recall);
    if (!v || *v <= 0.0 || *v > 1.0) {
      error = "recall must be a number in (0, 1]";
      return false;
    }
    opts.recall_target = *v;
  }
  if (!deadline_ms.empty()) {
    const std::optional<std::size_t> ms = parse_size(deadline_ms);
    if (!ms || *ms == 0 || *ms > kMaxDeadlineMs) {
      error = "deadline_ms must be a positive integer of at most " +
              std::to_string(kMaxDeadlineMs) + " (one day)";
      return false;
    }
    opts.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(static_cast<std::int64_t>(*ms));
  }

  // Gather knobs (docs/GATHER.md): merge policy, RRF constant, near-dup
  // collapse threshold, facet count.
  if (const std::string_view merge = request.param("merge"); !merge.empty()) {
    if (!gather::parse_merge_policy(merge, opts.merge)) {
      error = "merge must be one of cosine, zscore, rrf";
      return false;
    }
  }
  if (const std::string_view rrf_k = request.param("rrf_k");
      !rrf_k.empty()) {
    const std::optional<double> v = parse_finite(rrf_k);
    if (!v || *v <= 0.0) {
      error = "rrf_k must be a positive finite number";
      return false;
    }
    opts.rrf_k = *v;
  }
  if (const std::string_view collapse = request.param("collapse");
      !collapse.empty()) {
    const std::optional<double> v = parse_finite(collapse);
    if (!v || *v <= 0.0 || *v > 1.0) {
      error = "collapse must be a cosine threshold in (0, 1]";
      return false;
    }
    opts.collapse_cosine = *v;
  }
  if (const std::string_view facets = request.param("facets");
      !facets.empty()) {
    const std::optional<std::size_t> v = parse_size(facets);
    if (!v || *v == 0) {
      error = "facets must be a positive integer";
      return false;
    }
    opts.facets = *v;
  }
  return true;
}

/// Canonical encoding of the response-affecting knobs for the session
/// cache: a session re-ranks when the query text OR this key changes.
/// deadline_ms is deliberately excluded (a latency budget never alters the
/// ranking).
std::string search_knobs_key(const HttpRequest& request) {
  std::string key;
  for (const char* name :
       {"nprobe", "recall", "exact", "merge", "rrf_k", "collapse", "facets"}) {
    key += request.param(name);
    key += '|';
  }
  return key;
}

std::string generations_json(const std::vector<std::uint64_t>& gens) {
  std::string out = "[";
  for (std::size_t i = 0; i < gens.size(); ++i) {
    if (i) out += ',';
    append_uint(out, gens[i]);
  }
  out += ']';
  return out;
}

/// The one /search response body (docs/SERVING.md): hits [begin, end) of
/// `result`, its facets and the view's generation vector, plus the paging
/// fields when the search ran in `session` (whose cursor is already `end`).
std::string search_json(const core::ShardedSnapshot::GatherResult& result,
                        std::size_t begin, std::size_t end,
                        const std::vector<std::uint64_t>& generations,
                        const Session* session) {
  std::string out;
  out.reserve(64 + 128 * (end - begin));
  out += "{\"results\":[";
  for (std::size_t i = begin; i < end; ++i) {
    const core::ShardedSnapshot::GatherHit& hit = result.hits[i];
    if (i != begin) out += ',';
    out += "{\"doc\":";
    append_uint(out, hit.doc);
    out += ",\"label\":\"";
    out += util::json_escape(hit.label);
    out += "\",\"score\":";
    append_double(out, hit.score);
    out += ",\"cosine\":";
    append_double(out, hit.cosine);
    out += ",\"shard\":";
    append_uint(out, hit.shard);
    out += ",\"duplicates\":[";
    for (std::size_t d = 0; d < hit.duplicates.size(); ++d) {
      if (d) out += ',';
      append_uint(out, hit.duplicates[d]);
    }
    out += "]}";
  }
  out += "],\"facets\":[";
  for (std::size_t f = 0; f < result.facets.size(); ++f) {
    if (f) out += ',';
    out += "{\"term\":\"";
    out += util::json_escape(result.facets[f].term);
    out += "\",\"weight\":";
    append_double(out, result.facets[f].weight);
    out += '}';
  }
  out += "],\"generations\":";
  out += generations_json(generations);
  if (session != nullptr) {
    out += ",\"session\":\"";
    out += util::json_escape(session->token);
    out += "\",\"cursor\":";
    append_uint(out, session->cursor);
    out += ",\"total\":";
    append_uint(out, result.hits.size());
    out += ",\"more\":";
    out += session->cursor < result.hits.size() ? "true" : "false";
  }
  out += '}';
  return out;
}

}  // namespace

/// One accepted socket: its parser, its pending output, and the flags the
/// state machine needs. Owned by the loop thread exclusively.
struct HttpServer::Connection {
  Connection(int fd_in, HttpParser::Limits limits)
      : fd(fd_in), parser(limits) {}
  int fd;
  HttpParser parser;
  std::string outbuf;
  std::size_t out_pos = 0;
  bool close_after_flush = false;
  bool want_write = false;  ///< EPOLLOUT currently in the interest set
};

HttpServer::HttpServer(core::ShardedIndex& index, ServerOptions opts)
    : index_(index),
      opts_(std::move(opts)),
      sessions_(opts_.max_sessions, opts_.session_ttl, opts_.token_seed) {}

HttpServer::~HttpServer() {
  if (thread_.joinable()) {
    request_drain();
    thread_.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status HttpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host: " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  if (Status s = loop_.add(listen_fd_, EPOLLIN,
                           [this](std::uint32_t ev) { on_accept(ev); });
      !s.ok()) {
    return s;
  }
  loop_.set_tick(std::chrono::milliseconds(50), [this] { tick(); });
  started_at_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { loop_main(); });
  return Status::Ok();
}

void HttpServer::loop_main() {
  loop_.run();
  // Whatever survived the drain deadline: hard-close and release.
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  counters_.connections_open.store(0, std::memory_order_relaxed);
  sessions_.clear();
  counters_.sessions_open.store(0, std::memory_order_relaxed);
  state_.store(static_cast<int>(RunState::kStopped),
               std::memory_order_release);
  stopped_.store(true, std::memory_order_release);
}

void HttpServer::request_drain() {
  if (stopped_.load(std::memory_order_acquire)) return;
  loop_.defer([this] {
    if (state_.load(std::memory_order_relaxed) !=
        static_cast<int>(RunState::kRunning)) {
      return;
    }
    state_.store(static_cast<int>(RunState::kDraining),
                 std::memory_order_release);
    drain_started_ = std::chrono::steady_clock::now();
    obs::count("serve.drains");
    if (listen_fd_ >= 0) {
      loop_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // In-flight = bytes already buffered: answer them, flush, then close.
    // New reads stop (on_connection_event ignores EPOLLIN while draining).
    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto& [fd, conn] : connections_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      conn.close_after_flush = true;
      process_buffered(conn);
      if (connections_.count(fd)) flush(conn);
    }
    finish_drain();
  });
}

void HttpServer::join() {
  if (thread_.joinable()) thread_.join();
}

void HttpServer::drain() {
  request_drain();
  join();
}

void HttpServer::finish_drain() {
  if (state_.load(std::memory_order_relaxed) !=
          static_cast<int>(RunState::kDraining) ||
      !connections_.empty()) {
    return;
  }
  // Last writer out: sessions die here, dropping every snapshot pin before
  // the loop reports stopped.
  sessions_.clear();
  counters_.sessions_open.store(0, std::memory_order_relaxed);
  loop_.stop();
}

void HttpServer::tick() {
  const auto now = std::chrono::steady_clock::now();
  const std::size_t evicted = sessions_.evict_expired(now);
  if (evicted > 0) {
    counters_.sessions_expired.fetch_add(evicted, std::memory_order_relaxed);
    counters_.sessions_open.store(sessions_.size(),
                                  std::memory_order_relaxed);
    obs::count("serve.sessions_expired", evicted);
  }
  obs::gauge("serve.connections", static_cast<double>(connections_.size()));
  obs::gauge("serve.sessions", static_cast<double>(sessions_.size()));
  obs::gauge("serve.pinned_snapshots", static_cast<double>(index_.pinned()));

  if (state_.load(std::memory_order_relaxed) ==
          static_cast<int>(RunState::kDraining) &&
      now - drain_started_ > opts_.drain_deadline) {
    std::vector<int> fds;
    for (const auto& [fd, conn] : connections_) fds.push_back(fd);
    for (int fd : fds) close_connection(fd);
    finish_drain();
  }
}

void HttpServer::on_accept(std::uint32_t) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // EMFILE etc: retry on the next readiness
    }
    if (connections_.size() >= opts_.max_connections) {
      // Admission control at the door: a one-shot 503 with Retry-After.
      counters_.draining_503.fetch_add(1, std::memory_order_relaxed);
      obs::count("serve.overload_503");
      HttpResponse resp;
      resp.status = 503;
      resp.keep_alive = false;
      resp.set_header("Retry-After", std::to_string(opts_.retry_after_seconds));
      resp.body = "{\"error\":\"connection table full\"}";
      const std::string wire = serialize(resp);
      [[maybe_unused]] ssize_t n =
          ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>(fd, opts_.limits);
    if (!loop_.add(fd, EPOLLIN,
                   [this, fd](std::uint32_t ev) {
                     on_connection_event(fd, ev);
                   })
             .ok()) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_.connections_open.store(connections_.size(),
                                     std::memory_order_relaxed);
    obs::count("serve.connections_accepted");
  }
}

void HttpServer::on_connection_event(int fd, std::uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    close_connection(fd);
    return;
  }
  if (events & EPOLLOUT) {
    flush(conn);
    if (!connections_.count(fd)) return;
  }
  if ((events & EPOLLIN) &&
      state_.load(std::memory_order_relaxed) ==
          static_cast<int>(RunState::kRunning)) {
    char buf[16384];
    bool peer_closed = false;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_closed = true;
      break;
    }
    process_buffered(conn);
    if (!connections_.count(fd)) return;
    if (peer_closed) conn.close_after_flush = true;
    flush(conn);
    if (!connections_.count(fd)) return;
    if (peer_closed && conn.outbuf.empty()) close_connection(fd);
  }
}

void HttpServer::process_buffered(Connection& conn) {
  while (conn.parser.complete() && !conn.close_after_flush) {
    const HttpRequest request = conn.parser.take();
    HttpResponse response = dispatch(request);
    if (!request.keep_alive) response.keep_alive = false;
    if (state_.load(std::memory_order_relaxed) !=
        static_cast<int>(RunState::kRunning)) {
      response.keep_alive = false;
    }
    if (!response.keep_alive) conn.close_after_flush = true;
    conn.outbuf += serialize(response);
    count_response(response.status);
  }
  if (conn.parser.failed()) {
    counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.parse_errors");
    HttpResponse response =
        error_response(conn.parser.error_status(), conn.parser.error_reason());
    response.keep_alive = false;
    conn.outbuf += serialize(response);
    count_response(response.status);
    conn.close_after_flush = true;
  }
}

void HttpServer::flush(Connection& conn) {
  const int fd = conn.fd;
  while (conn.out_pos < conn.outbuf.size()) {
    const ssize_t n = ::send(fd, conn.outbuf.data() + conn.out_pos,
                             conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        (void)loop_.modify(fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(fd);
    return;
  }
  conn.outbuf.clear();
  conn.out_pos = 0;
  if (conn.want_write) {
    conn.want_write = false;
    (void)loop_.modify(fd, EPOLLIN);
  }
  if (conn.close_after_flush) close_connection(fd);
}

void HttpServer::close_connection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  loop_.remove(fd);
  ::close(fd);
  connections_.erase(it);
  counters_.connections_open.store(connections_.size(),
                                   std::memory_order_relaxed);
  if (state_.load(std::memory_order_relaxed) ==
      static_cast<int>(RunState::kDraining)) {
    finish_drain();
  }
}

// ---------------------------------------------------------------------------
// Command dispatch
// ---------------------------------------------------------------------------

void HttpServer::count_response(int status) {
  if (status < 400) {
    counters_.responses_2xx.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.responses_2xx");
  } else if (status < 500) {
    counters_.responses_4xx.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.responses_4xx");
  } else {
    counters_.responses_5xx.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.responses_5xx");
  }
}

HttpResponse HttpServer::error_response(int status, std::string_view message) {
  HttpResponse resp;
  resp.status = status;
  if (status == 429 || status == 503) {
    resp.set_header("Retry-After", std::to_string(opts_.retry_after_seconds));
  }
  resp.body = "{\"error\":\"";
  resp.body += util::json_escape(message);
  resp.body += "\"}";
  return resp;
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  LSI_OBS_SPAN(span, "serve.request");
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.requests");

  const std::string& path = request.path;
  const std::string& method = request.method;
  auto method_not_allowed = [&](const char* allow) {
    HttpResponse resp = error_response(405, "method not allowed");
    resp.set_header("Allow", allow);
    return resp;
  };

  if (path == "/search") {
    if (method != "GET") return method_not_allowed("GET");
    return handle_search(request);
  }
  if (path == "/ingest") {
    if (method != "POST") return method_not_allowed("POST");
    return handle_ingest(request);
  }
  if (path == "/consolidate") {
    if (method != "POST") return method_not_allowed("POST");
    return handle_consolidate(request);
  }
  if (path == "/stats") {
    if (method != "GET") return method_not_allowed("GET");
    return handle_stats(request);
  }
  if (path == "/session") {
    if (method == "POST") return handle_session_create(request);
    if (method == "DELETE") return handle_session_delete(request);
    return method_not_allowed("POST, DELETE");
  }
  if (path == "/healthz") {
    if (method != "GET") return method_not_allowed("GET");
    return handle_healthz();
  }
  if (path == "/replica/eject") {
    if (method != "POST") return method_not_allowed("POST");
    return handle_replica_admin(request, /*eject=*/true);
  }
  if (path == "/replica/readmit") {
    if (method != "POST") return method_not_allowed("POST");
    return handle_replica_admin(request, /*eject=*/false);
  }
  if (path == "/shutdown") {
    if (method != "POST") return method_not_allowed("POST");
    // Answer first, drain after: request_drain defers onto this loop, so
    // the drain runs after this response is queued and flushed.
    request_drain();
    HttpResponse resp;
    resp.keep_alive = false;
    resp.body = "{\"draining\":true}";
    return resp;
  }
  return error_response(404, "no such command: " + path);
}

HttpResponse HttpServer::handle_search(const HttpRequest& request) {
  LSI_OBS_SPAN(span, "serve.search");
  std::size_t page = opts_.default_page_size;
  if (const std::string_view top = request.param("top"); !top.empty()) {
    const std::optional<std::size_t> v = parse_size(top);
    if (!v || *v == 0) {
      return error_response(400, "top must be a positive integer");
    }
    page = *v;
  }
  page = std::min(page, opts_.max_ranking);
  const std::string_view token = request.param("session");
  const std::string_view q = request.param("q");

  core::SearchOptions sopts;
  std::string knob_error;
  if (!parse_search_knobs(request, sopts, knob_error)) {
    return error_response(400, knob_error);
  }
  // Library status → HTTP status for the checked retrieval path.
  auto status_response = [&](const Status& st) {
    const int http = st.code() == StatusCode::kDeadlineExceeded ? 504
                     : st.code() == StatusCode::kInvalidArgument ? 400
                                                                 : 500;
    return error_response(http, st.message());
  };

  HttpResponse resp;
  if (token.empty()) {
    // Sessionless: one-shot against the current view, no paging state.
    if (q.empty()) return error_response(400, "missing q parameter");
    sopts.z = page;
    const core::ShardedSnapshot snap = index_.snapshot();
    auto gathered = snap.try_gather_batch({std::string(q)}, sopts);
    if (!gathered.ok()) return status_response(gathered.status());
    const core::ShardedSnapshot::GatherResult& result = gathered.value()[0];
    resp.body = search_json(result, 0, result.hits.size(), snap.generations(),
                            nullptr);
    return resp;
  }

  Session* session =
      sessions_.find(token, std::chrono::steady_clock::now());
  if (session == nullptr) return error_response(404, "unknown session");

  const std::string knobs_key = search_knobs_key(request);
  if (!q.empty() && (std::string(q) != session->last_query ||
                     knobs_key != session->last_options_key)) {
    // New query (or changed knobs) for this session: gather once against
    // the PINNED view (depth capped at max_ranking) and page from the cache.
    sopts.z = opts_.max_ranking;
    auto gathered = session->pin->try_gather_batch({std::string(q)}, sopts);
    if (!gathered.ok()) return status_response(gathered.status());
    session->result = std::move(gathered.value()[0]);
    session->last_query = std::string(q);
    session->last_options_key = knobs_key;
    session->cursor = 0;
  } else if (session->last_query.empty()) {
    return error_response(400, "missing q parameter and no cached query");
  }
  if (request.has_param("cursor")) {
    session->cursor =
        parse_size(request.param("cursor")).value_or(session->cursor);
  }

  const std::size_t total = session->result.hits.size();
  const std::size_t begin = std::min(session->cursor, total);
  const std::size_t end = std::min(begin + page, total);
  session->cursor = end;
  resp.body = search_json(session->result, begin, end,
                          session->pin->generations(), session);
  return resp;
}

HttpResponse HttpServer::handle_ingest(const HttpRequest& request) {
  LSI_OBS_SPAN(span, "serve.ingest");
  if (request.body.empty()) {
    return error_response(400, "empty ingest body (label\\ttext per line)");
  }
  Session* session = nullptr;
  if (const std::string_view token = request.param("session");
      !token.empty()) {
    session = sessions_.find(token, std::chrono::steady_clock::now());
    if (session == nullptr) return error_response(404, "unknown session");
  }

  std::size_t accepted = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  const std::string& body = request.body;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string_view line(body.data() + pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = eol + 1;
    if (line.empty()) continue;
    ++line_no;
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return error_response(
          400, "ingest line " + std::to_string(line_no) + " has no tab");
    }
    text::Document doc{std::string(line.substr(0, tab)),
                       std::string(line.substr(tab + 1))};
    const Status status = index_.try_add(std::move(doc));
    if (status.ok()) {
      ++accepted;
      continue;
    }
    if (status.code() == StatusCode::kResourceExhausted) {
      // The routed shard's bounded queue is full: the library's
      // backpressure becomes HTTP 429 and the client retries after a beat.
      counters_.backpressure_429.fetch_add(1, std::memory_order_relaxed);
      obs::count("serve.backpressure_429");
      HttpResponse resp = error_response(429, "shard ingest queue full");
      resp.body = "{\"error\":\"shard ingest queue full\",\"accepted\":" +
                  std::to_string(accepted) +
                  ",\"rejected_line\":" + std::to_string(line_no) + "}";
      counters_.docs_ingested.fetch_add(accepted, std::memory_order_relaxed);
      if (session) session->writes += accepted;
      return resp;
    }
    if (status.code() == StatusCode::kUnavailable) {
      // The routed shard cannot reach its replica write quorum: the ack is
      // keyed on quorum, so the document is NOT accepted — 503 and the
      // client retries once replicas are readmitted.
      counters_.quorum_503.fetch_add(1, std::memory_order_relaxed);
      obs::count("serve.quorum_503");
      HttpResponse resp = error_response(503, status.message());
      resp.body = "{\"error\":\"" + util::json_escape(status.message()) +
                  "\",\"accepted\":" + std::to_string(accepted) +
                  ",\"rejected_line\":" + std::to_string(line_no) + "}";
      counters_.docs_ingested.fetch_add(accepted, std::memory_order_relaxed);
      if (session) session->writes += accepted;
      return resp;
    }
    // kFailedPrecondition: the index is shut down underneath the daemon.
    return error_response(503, status.message());
  }
  counters_.docs_ingested.fetch_add(accepted, std::memory_order_relaxed);
  obs::count("serve.docs_ingested", accepted);
  if (session) session->writes += accepted;

  bool refreshed = false;
  if (request.param("wait") == "1") {
    // Read-your-writes: block until every accepted document is folded and
    // published, then refresh the session's pin to the view containing
    // them. Other sessions keep their older pinned generations.
    index_.flush();
    if (session) {
      session->pin = index_.pin_snapshot();
      session->last_query.clear();
      session->result = {};
      session->cursor = 0;
      refreshed = true;
    }
  }

  HttpResponse resp;
  resp.status = 202;
  resp.body = "{\"accepted\":" + std::to_string(accepted) +
              ",\"pin_refreshed\":" + (refreshed ? "true" : "false") + "}";
  return resp;
}

HttpResponse HttpServer::handle_consolidate(const HttpRequest&) {
  LSI_OBS_SPAN(span, "serve.consolidate");
  const Status status = index_.consolidate();
  if (!status.ok()) return error_response(503, status.message());
  HttpResponse resp;
  resp.body = "{\"consolidated\":true,\"generations\":";
  resp.body += generations_json(index_.snapshot().generations());
  resp.body += '}';
  return resp;
}

HttpResponse HttpServer::handle_session_create(const HttpRequest&) {
  Session* session = sessions_.create(index_.pin_snapshot(),
                                      std::chrono::steady_clock::now());
  if (session == nullptr) {
    return error_response(503, "session table full");
  }
  counters_.sessions_created.fetch_add(1, std::memory_order_relaxed);
  counters_.sessions_open.store(sessions_.size(), std::memory_order_relaxed);
  obs::count("serve.sessions_created");
  HttpResponse resp;
  resp.status = 201;
  resp.body = "{\"session\":\"";
  resp.body += util::json_escape(session->token);
  resp.body += "\",\"generations\":";
  resp.body += generations_json(session->pin->generations());
  resp.body += ",\"ttl_seconds\":";
  resp.body += std::to_string(sessions_.ttl().count());
  resp.body += '}';
  return resp;
}

HttpResponse HttpServer::handle_session_delete(const HttpRequest& request) {
  const std::string_view token = request.param("session");
  if (token.empty()) return error_response(400, "missing session parameter");
  if (!sessions_.release(token)) {
    return error_response(404, "unknown session");
  }
  counters_.sessions_open.store(sessions_.size(), std::memory_order_relaxed);
  obs::count("serve.sessions_released");
  HttpResponse resp;
  resp.body = "{\"released\":true}";
  return resp;
}

HttpResponse HttpServer::handle_healthz() {
  // Replication-aware health: the daemon serves as long as every shard has
  // at least one healthy replica. Losing some (but not all) replicas of a
  // shard is "degraded" — still 200, because reads and quorum writes still
  // work where quorum holds; an operator alerts on the field, a load
  // balancer does not pull the node. A shard at zero healthy replicas is
  // 503: reads fall back to stale snapshots and writes cannot ack.
  const std::size_t shards = index_.num_shards();
  const std::size_t replicas = index_.replicas_per_shard();
  std::size_t degraded_shards = 0;
  std::size_t dead_shards = 0;
  std::string per_shard = "[";
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t healthy = index_.healthy_replicas(s);
    if (healthy == 0) {
      ++dead_shards;
    } else if (healthy < replicas) {
      ++degraded_shards;
    }
    if (s) per_shard += ',';
    per_shard += std::to_string(healthy);
  }
  per_shard += ']';

  const char* status = dead_shards > 0      ? "unavailable"
                       : degraded_shards > 0 ? "degraded"
                                             : "ok";
  HttpResponse resp;
  if (dead_shards > 0) {
    resp.status = 503;
    resp.set_header("Retry-After", std::to_string(opts_.retry_after_seconds));
  }
  resp.body = "{\"status\":\"";
  resp.body += status;
  resp.body += "\",\"replicas_per_shard\":";
  resp.body += std::to_string(replicas);
  resp.body += ",\"healthy_replicas\":";
  resp.body += per_shard;
  resp.body += '}';
  return resp;
}

HttpResponse HttpServer::handle_replica_admin(const HttpRequest& request,
                                              bool eject) {
  LSI_OBS_SPAN(span, eject ? "serve.replica_eject" : "serve.replica_readmit");
  const std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t shard = parse_size(request.param("shard")).value_or(npos);
  const std::size_t replica =
      parse_size(request.param("replica")).value_or(npos);
  if (shard == npos || replica == npos) {
    return error_response(400, "shard and replica parameters are required");
  }
  // readmit replays the shard's ingest log on this (loop) thread before
  // answering: the 200 means the replica is caught up and back in the feed,
  // which is exactly what the scripted failover steps want to assert.
  const Status status = eject ? index_.eject_replica(shard, replica)
                              : index_.readmit_replica(shard, replica);
  if (!status.ok()) {
    const int http =
        status.code() == StatusCode::kInvalidArgument ? 400 : 409;
    return error_response(http, status.message());
  }
  HttpResponse resp;
  resp.body = "{\"shard\":" + std::to_string(shard) +
              ",\"replica\":" + std::to_string(replica) + ",\"state\":\"" +
              (eject ? "ejected" : "healthy") + "\",\"healthy\":" +
              std::to_string(index_.healthy_replicas(shard)) + "}";
  return resp;
}

HttpResponse HttpServer::handle_stats(const HttpRequest&) {
  LSI_OBS_SPAN(span, "serve.stats");
  const Stats s = stats();
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_at_)
                            .count();
  std::string body = "{\"state\":\"";
  body += state_.load(std::memory_order_relaxed) ==
                  static_cast<int>(RunState::kRunning)
              ? "running"
              : "draining";
  body += "\",\"uptime_seconds\":";
  append_double(body, uptime);
  body += ",\"connections\":{\"open\":";
  body += std::to_string(s.connections_open);
  body += ",\"accepted\":";
  body += std::to_string(s.connections_accepted);
  body += "},\"requests\":";
  body += std::to_string(s.requests);
  body += ",\"responses\":{\"2xx\":";
  body += std::to_string(s.responses_2xx);
  body += ",\"4xx\":";
  body += std::to_string(s.responses_4xx);
  body += ",\"5xx\":";
  body += std::to_string(s.responses_5xx);
  body += "},\"backpressure_429\":";
  body += std::to_string(s.backpressure_429);
  body += ",\"quorum_503\":";
  body += std::to_string(s.quorum_503);
  body += ",\"parse_errors\":";
  body += std::to_string(s.parse_errors);
  body += ",\"sessions\":{\"open\":";
  body += std::to_string(s.sessions_open);
  body += ",\"created\":";
  body += std::to_string(s.sessions_created);
  body += ",\"expired\":";
  body += std::to_string(s.sessions_expired);
  body += "},\"pinned_snapshots\":";
  body += std::to_string(index_.pinned());
  body += ",\"docs_ingested\":";
  body += std::to_string(s.docs_ingested);
  // One snapshot feeds BOTH the generation vector and the per-shard rows, so
  // the "generations" array and every row's "generation" (and ANN state) are
  // views of the same pinned IndexSnapshots — exactly what /session reports
  // for a pinned view (ShardedSnapshot is the single source of truth).
  const core::ShardedSnapshot snap = index_.snapshot();
  body += ",\"generations\":";
  body += generations_json(snap.generations());
  // Term-statistics exchange state (docs/GATHER.md): version 0 with
  // enabled=true means configured but never published (cannot happen after
  // a successful build — the build pass publishes v1).
  const auto ts = index_.term_stats_info();
  body += ",\"gather\":{\"term_stats\":{\"enabled\":";
  body += ts.enabled ? "true" : "false";
  body += ",\"version\":";
  body += std::to_string(ts.version);
  body += ",\"docs\":";
  body += std::to_string(ts.docs);
  body += ",\"terms\":";
  body += std::to_string(ts.terms);
  body += "}}";
  body += ",\"shards\":[";
  const auto infos = index_.shard_infos(snap);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    if (i) body += ',';
    body += "{\"shard\":";
    body += std::to_string(infos[i].shard);
    body += ",\"docs\":";
    body += std::to_string(infos[i].docs);
    body += ",\"terms\":";
    body += std::to_string(infos[i].terms);
    body += ",\"k\":";
    body += std::to_string(infos[i].k);
    body += ",\"generation\":";
    body += std::to_string(infos[i].generation);
    body += ",\"queued\":";
    body += std::to_string(infos[i].queued);
    body += ",\"ingested\":";
    body += std::to_string(infos[i].ingested);
    body += ",\"publishes\":";
    body += std::to_string(infos[i].publishes);
    body += ",\"consolidations\":";
    body += std::to_string(infos[i].consolidations);
    body += ",\"ann\":{\"centroids\":";
    body += std::to_string(infos[i].ann_centroids);
    body += ",\"generation\":";
    body += std::to_string(infos[i].ann_generation);
    body += ",\"exact_fallback\":";
    body += infos[i].ann_exact_fallback ? "true" : "false";
    // Per-replica rows: `pinned_replica` is the replica serving THIS pinned
    // view (its generation equals the row's "generation" above); sibling
    // generations may legitimately skew while consolidations land.
    body += "},\"pinned_replica\":";
    body += std::to_string(infos[i].replica);
    body += ",\"healthy_replicas\":";
    body += std::to_string(infos[i].healthy);
    body += ",\"replicas\":[";
    const auto rows = index_.replica_infos(i);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r) body += ',';
      body += "{\"replica\":";
      body += std::to_string(rows[r].replica);
      body += ",\"state\":\"";
      body += core::replica_state_name(rows[r].state);
      body += "\",\"fed\":";
      body += std::to_string(rows[r].fed);
      body += ",\"queued\":";
      body += std::to_string(rows[r].queued);
      body += ",\"in_flight\":";
      body += std::to_string(rows[r].in_flight);
      body += ",\"generation\":";
      body += std::to_string(rows[r].generation);
      body += ",\"ingested\":";
      body += std::to_string(rows[r].ingested);
      body += ",\"publishes\":";
      body += std::to_string(rows[r].publishes);
      body += ",\"consolidations\":";
      body += std::to_string(rows[r].consolidations);
      body += '}';
    }
    body += "]}";
  }
  body += "]}";

  HttpResponse resp;
  resp.body = std::move(body);
  resp.chunked = true;  // the daemon's demonstration of the chunked coder
  return resp;
}

HttpServer::Stats HttpServer::stats() const {
  Stats s;
  s.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_open =
      counters_.connections_open.load(std::memory_order_relaxed);
  s.requests = counters_.requests.load(std::memory_order_relaxed);
  s.responses_2xx = counters_.responses_2xx.load(std::memory_order_relaxed);
  s.responses_4xx = counters_.responses_4xx.load(std::memory_order_relaxed);
  s.responses_5xx = counters_.responses_5xx.load(std::memory_order_relaxed);
  s.backpressure_429 =
      counters_.backpressure_429.load(std::memory_order_relaxed);
  s.draining_503 = counters_.draining_503.load(std::memory_order_relaxed);
  s.quorum_503 = counters_.quorum_503.load(std::memory_order_relaxed);
  s.parse_errors = counters_.parse_errors.load(std::memory_order_relaxed);
  s.sessions_created =
      counters_.sessions_created.load(std::memory_order_relaxed);
  s.sessions_expired =
      counters_.sessions_expired.load(std::memory_order_relaxed);
  s.docs_ingested = counters_.docs_ingested.load(std::memory_order_relaxed);
  s.sessions_open = counters_.sessions_open.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lsi::serve
