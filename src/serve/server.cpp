#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace lsi::serve {

namespace {

/// Retry-After value on 429/503 answers.
constexpr unsigned kRetryAfterSeconds = 1;
/// Hard cap on a single search's ranked depth (sessions page within it).
constexpr std::size_t kMaxRanking = 1000;
/// Force-close stragglers this long after drain starts.
constexpr std::chrono::milliseconds kDrainDeadline{5000};

/// Bumps a /stats counter and the sink counter of the same event together,
/// so the two ledgers cannot drift apart.
void bump(std::atomic<std::uint64_t>& counter, const char* name,
          std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
  obs::count(name, n);
}

/// Writes the member "generations": [g0, g1, ...].
void write_generations(util::JsonWriter& json,
                       const std::vector<std::uint64_t>& generations) {
  json.key("generations").begin_array();
  for (const std::uint64_t g : generations) json.value(g);
  json.end_array();
}

/// The one /search response body (docs/SERVING.md): hits [begin, end) of
/// `result`, its facets and the view's generation vector, plus the paging
/// fields when the search ran in `session` (whose cursor is already `end`).
util::JsonWriter search_json(const core::ShardedSnapshot::GatherResult& result,
                             std::size_t begin, std::size_t end,
                             const std::vector<std::uint64_t>& generations,
                             const Session* session) {
  util::JsonWriter json;
  json.begin_object().key("results").begin_array();
  for (std::size_t i = begin; i < end; ++i) {
    const core::ShardedSnapshot::GatherHit& hit = result.hits[i];
    json.begin_object().key("doc").value(hit.doc).key("label").value(hit.label)
        .key("score").value(hit.score).key("cosine").value(hit.cosine)
        .key("shard").value(hit.shard).key("duplicates").begin_array();
    for (const auto d : hit.duplicates) json.value(d);
    json.end_array().end_object();
  }
  json.end_array().key("facets").begin_array();
  for (const auto& facet : result.facets) {
    json.begin_object().key("term").value(facet.term)
        .key("weight").value(facet.weight).end_object();
  }
  json.end_array();
  write_generations(json, generations);
  if (session != nullptr) {
    const std::size_t cursor = session->cursor, total = result.hits.size();
    json.key("session").value(session->token).key("cursor").value(cursor)
        .key("total").value(total).key("more").value(cursor < total);
  }
  json.end_object();
  return json;
}

}  // namespace

/// One accepted socket: its parser, its pending output, and the flags the
/// state machine needs. Owned by the loop thread exclusively.
struct HttpServer::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
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
      sessions_(opts_.session_ttl) {}

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
    bump(counters_.sessions_expired, "serve.sessions_expired", evicted);
    counters_.sessions_open.store(sessions_.size(),
                                  std::memory_order_relaxed);
  }
  obs::gauge("serve.connections", static_cast<double>(connections_.size()));
  obs::gauge("serve.sessions", static_cast<double>(sessions_.size()));
  obs::gauge("serve.pinned_snapshots", static_cast<double>(index_.pinned()));

  if (state_.load(std::memory_order_relaxed) ==
          static_cast<int>(RunState::kDraining) &&
      now - drain_started_ > kDrainDeadline) {
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
      bump(counters_.overload_503, "serve.overload_503");
      HttpResponse resp = error_response(503, "connection table full");
      resp.keep_alive = false;
      const std::string wire = serialize(resp);
      [[maybe_unused]] ssize_t n =
          ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>(fd);
    if (!loop_.add(fd, EPOLLIN,
                   [this, fd](std::uint32_t ev) {
                     on_connection_event(fd, ev);
                   })
             .ok()) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    bump(counters_.connections_accepted, "serve.connections_accepted");
    counters_.connections_open.store(connections_.size(),
                                     std::memory_order_relaxed);
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
    bump(counters_.parse_errors, "serve.parse_errors");
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
    bump(counters_.responses_2xx, "serve.responses_2xx");
  } else if (status < 500) {
    bump(counters_.responses_4xx, "serve.responses_4xx");
  } else {
    bump(counters_.responses_5xx, "serve.responses_5xx");
  }
}

HttpResponse HttpServer::respond(int status, util::JsonWriter& json) const {
  HttpResponse resp;
  resp.status = status;
  if (status == 429 || status == 503) {
    resp.set_header("Retry-After", std::to_string(kRetryAfterSeconds));
  }
  resp.body = std::move(json).take();
  return resp;
}

HttpResponse HttpServer::error_response(int status,
                                        std::string_view message) const {
  util::JsonWriter json;
  return respond(status, json.begin_object().key("error").value(message)
                             .end_object());
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  LSI_OBS_SPAN(span, "serve.request");
  bump(counters_.requests, "serve.requests");

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
    util::JsonWriter json;
    HttpResponse resp =
        respond(200, json.begin_object().key("draining").value(true)
                         .end_object());
    resp.keep_alive = false;
    return resp;
  }
  return error_response(404, "no such command: " + path);
}

HttpResponse HttpServer::handle_search(const HttpRequest& request) {
  LSI_OBS_SPAN(span, "serve.search");
  std::size_t page = opts_.default_page_size;
  if (const std::string_view top = request.param("top"); !top.empty()) {
    const std::optional<std::size_t> v = util::parse_size(top);
    if (!v || *v == 0) {
      return error_response(400, "top must be a positive integer");
    }
    page = *v;
  }
  page = std::min(page, kMaxRanking);
  const bool has_cursor = request.has_param("cursor");
  const std::optional<std::size_t> cursor =
      util::parse_size(request.param("cursor"));
  if (has_cursor && !cursor) {
    return error_response(400, "cursor must be a nonnegative integer");
  }
  const std::string_view token = request.param("session");
  const std::string_view q = request.param("q");

  const auto param = [&](std::string_view name) { return request.param(name); };
  core::SearchOptions sopts;
  if (Status s = core::parse_search_knobs(param, sopts); !s.ok()) {
    return error_response(400, s.message());
  }
  // Library status → HTTP status for the checked retrieval path.
  auto status_response = [&](const Status& st) {
    const int http = st.code() == StatusCode::kDeadlineExceeded ? 504
                     : st.code() == StatusCode::kInvalidArgument ? 400
                                                                 : 500;
    return error_response(http, st.message());
  };

  if (token.empty()) {
    // Sessionless: one-shot against the current view, no paging state.
    if (q.empty()) return error_response(400, "missing q parameter");
    sopts.z = page;
    const core::ShardedSnapshot snap = index_.snapshot();
    auto gathered = snap.try_gather_batch({std::string(q)}, sopts);
    if (!gathered.ok()) return status_response(gathered.status());
    const core::ShardedSnapshot::GatherResult& result = gathered.value()[0];
    util::JsonWriter json = search_json(result, 0, result.hits.size(),
                                        snap.generations(), nullptr);
    return respond(200, json);
  }

  Session* session =
      sessions_.find(token, std::chrono::steady_clock::now());
  if (session == nullptr) return error_response(404, "unknown session");

  const std::string knobs_key = core::search_knobs_key(param);
  if (!q.empty() && (std::string(q) != session->last_query ||
                     knobs_key != session->last_options_key)) {
    // New query (or changed knobs) for this session: gather once against
    // the PINNED view (depth capped at kMaxRanking) and page from the cache.
    sopts.z = kMaxRanking;
    auto gathered = session->pin->try_gather_batch({std::string(q)}, sopts);
    if (!gathered.ok()) return status_response(gathered.status());
    session->result = std::move(gathered.value()[0]);
    session->last_query = std::string(q);
    session->last_options_key = knobs_key;
    session->cursor = 0;
  } else if (session->last_query.empty()) {
    return error_response(400, "missing q parameter and no cached query");
  }
  if (has_cursor) session->cursor = *cursor;

  const std::size_t total = session->result.hits.size();
  const std::size_t begin = std::min(session->cursor, total);
  const std::size_t end = std::min(begin + page, total);
  session->cursor = end;
  util::JsonWriter json = search_json(session->result, begin, end,
                                      session->pin->generations(), session);
  return respond(200, json);
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
  // Every accepted document is counted once, in /stats and in the sink,
  // whether the body ends in success or in a partial refusal.
  const auto count_accepted = [&] {
    bump(counters_.docs_ingested, "serve.docs_ingested", accepted);
    if (session) session->writes += accepted;
  };
  // A refusal partway through the body reports the progress made before it.
  const auto refuse = [&](int status, std::string_view message) {
    count_accepted();
    util::JsonWriter json;
    return respond(status, json.begin_object().key("error").value(message)
                               .key("accepted").value(accepted)
                               .key("rejected_line").value(line_no)
                               .end_object());
  };
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
      bump(counters_.backpressure_429, "serve.backpressure_429");
      return refuse(429, "shard ingest queue full");
    }
    if (status.code() == StatusCode::kUnavailable) {
      // The routed shard cannot reach its replica write quorum: the ack is
      // keyed on quorum, so the document is NOT accepted — 503 and the
      // client retries once replicas are readmitted.
      bump(counters_.quorum_503, "serve.quorum_503");
      return refuse(503, status.message());
    }
    // kFailedPrecondition: the index is shut down underneath the daemon.
    return error_response(503, status.message());
  }
  count_accepted();

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

  util::JsonWriter json;
  return respond(202, json.begin_object().key("accepted").value(accepted)
                          .key("pin_refreshed").value(refreshed)
                          .end_object());
}

HttpResponse HttpServer::handle_consolidate(const HttpRequest&) {
  LSI_OBS_SPAN(span, "serve.consolidate");
  const Status status = index_.consolidate();
  if (!status.ok()) return error_response(503, status.message());
  util::JsonWriter json;
  json.begin_object().key("consolidated").value(true);
  write_generations(json, index_.snapshot().generations());
  return respond(200, json.end_object());
}

HttpResponse HttpServer::handle_session_create(const HttpRequest&) {
  Session* session = sessions_.create(index_.pin_snapshot(),
                                      std::chrono::steady_clock::now());
  if (session == nullptr) {
    return error_response(503, "session table full");
  }
  bump(counters_.sessions_created, "serve.sessions_created");
  counters_.sessions_open.store(sessions_.size(), std::memory_order_relaxed);
  util::JsonWriter json;
  json.begin_object().key("session").value(session->token);
  write_generations(json, session->pin->generations());
  return respond(
      201, json.key("ttl_seconds").value(sessions_.ttl().count()).end_object());
}

HttpResponse HttpServer::handle_session_delete(const HttpRequest& request) {
  const std::string_view token = request.param("session");
  if (token.empty()) return error_response(400, "missing session parameter");
  if (!sessions_.release(token)) {
    return error_response(404, "unknown session");
  }
  counters_.sessions_open.store(sessions_.size(), std::memory_order_relaxed);
  obs::count("serve.sessions_released");
  util::JsonWriter json;
  return respond(200, json.begin_object().key("released").value(true)
                          .end_object());
}

HttpResponse HttpServer::handle_healthz() {
  // Replication-aware health: the daemon serves as long as every shard has
  // at least one healthy replica. Losing some (but not all) replicas of a
  // shard is "degraded" — still 200, because reads and quorum writes still
  // work where quorum holds; an operator alerts on the field, a load
  // balancer does not pull the node. A shard at zero healthy replicas is
  // 503: reads fall back to stale snapshots and writes cannot ack.
  const std::size_t replicas = index_.replicas_per_shard();
  std::vector<std::size_t> healthy(index_.num_shards());
  std::size_t fewest = replicas;
  for (std::size_t s = 0; s < healthy.size(); ++s) {
    healthy[s] = index_.healthy_replicas(s);
    fewest = std::min(fewest, healthy[s]);
  }
  util::JsonWriter json;
  const char* status = fewest == 0         ? "unavailable"
                       : fewest < replicas ? "degraded"
                                           : "ok";
  json.begin_object().key("status").value(status)
      .key("replicas_per_shard").value(replicas)
      .key("healthy_replicas").begin_array();
  for (const std::size_t h : healthy) json.value(h);
  return respond(fewest == 0 ? 503 : 200, json.end_array().end_object());
}

HttpResponse HttpServer::handle_replica_admin(const HttpRequest& request,
                                              bool eject) {
  LSI_OBS_SPAN(span, eject ? "serve.replica_eject" : "serve.replica_readmit");
  const std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t shard =
      util::parse_size(request.param("shard")).value_or(npos);
  const std::size_t replica =
      util::parse_size(request.param("replica")).value_or(npos);
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
  util::JsonWriter json;
  return respond(200, json.begin_object().key("shard").value(shard)
                          .key("replica").value(replica)
                          .key("state").value(eject ? "ejected" : "healthy")
                          .key("healthy").value(index_.healthy_replicas(shard))
                          .end_object());
}

HttpResponse HttpServer::handle_stats(const HttpRequest&) {
  LSI_OBS_SPAN(span, "serve.stats");
  const Stats s = stats();
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_at_)
                            .count();
  const bool running = state_.load(std::memory_order_relaxed) ==
                       static_cast<int>(RunState::kRunning);
  util::JsonWriter json;
  json.begin_object().key("state").value(running ? "running" : "draining")
      .key("uptime_seconds").value(uptime)
      .key("connections").begin_object().key("open").value(s.connections_open)
      .key("accepted").value(s.connections_accepted).end_object()
      .key("requests").value(s.requests)
      .key("responses").begin_object().key("2xx").value(s.responses_2xx)
      .key("4xx").value(s.responses_4xx).key("5xx").value(s.responses_5xx)
      .end_object()
      .key("backpressure_429").value(s.backpressure_429)
      .key("overload_503").value(s.overload_503)
      .key("quorum_503").value(s.quorum_503)
      .key("parse_errors").value(s.parse_errors)
      .key("sessions").begin_object().key("open").value(s.sessions_open)
      .key("created").value(s.sessions_created)
      .key("expired").value(s.sessions_expired).end_object()
      .key("pinned_snapshots").value(index_.pinned())
      .key("docs_ingested").value(s.docs_ingested);
  // One snapshot feeds BOTH the generation vector and the per-shard rows, so
  // the "generations" array and every row's "generation" (and ANN state) are
  // views of the same pinned IndexSnapshots — exactly what /session reports
  // for a pinned view (ShardedSnapshot is the single source of truth).
  const core::ShardedSnapshot snap = index_.snapshot();
  write_generations(json, snap.generations());
  // Term-statistics exchange state (docs/GATHER.md): version 0 with
  // enabled=true means configured but never published (cannot happen after
  // a successful build — the build pass publishes v1).
  const auto ts = index_.term_stats_info();
  json.key("gather").begin_object().key("term_stats").begin_object()
      .key("enabled").value(ts.enabled).key("version").value(ts.version)
      .key("docs").value(ts.docs).key("terms").value(ts.terms)
      .end_object().end_object();
  json.key("shards").begin_array();
  const auto infos = index_.shard_infos(snap);
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const auto& info = infos[i];
    // Per-replica rows: `pinned_replica` is the replica serving THIS pinned
    // view (its generation equals the row's "generation"); sibling
    // generations may legitimately skew while consolidations land.
    json.begin_object().key("shard").value(info.shard)
        .key("docs").value(info.docs).key("terms").value(info.terms)
        .key("k").value(info.k).key("generation").value(info.generation)
        .key("queued").value(info.queued).key("ingested").value(info.ingested)
        .key("publishes").value(info.publishes)
        .key("consolidations").value(info.consolidations)
        .key("ann").begin_object().key("centroids").value(info.ann_centroids)
        .key("generation").value(info.ann_generation)
        .key("exact_fallback").value(info.ann_exact_fallback).end_object()
        .key("pinned_replica").value(info.replica)
        .key("healthy_replicas").value(info.healthy)
        .key("replicas").begin_array();
    for (const auto& row : index_.replica_infos(i)) {
      json.begin_object().key("replica").value(row.replica)
          .key("state").value(core::replica_state_name(row.state))
          .key("fed").value(row.fed).key("queued").value(row.queued)
          .key("in_flight").value(row.in_flight)
          .key("generation").value(row.generation)
          .key("ingested").value(row.ingested)
          .key("publishes").value(row.publishes)
          .key("consolidations").value(row.consolidations).end_object();
    }
    json.end_array().end_object();
  }

  HttpResponse resp = respond(200, json.end_array().end_object());
  resp.chunked = true;  // the daemon's demonstration of the chunked coder
  return resp;
}

HttpServer::Stats HttpServer::stats() const {
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const auto& c = counters_;
  Stats s;
  s.connections_accepted = load(c.connections_accepted);
  s.connections_open = load(c.connections_open);
  s.requests = load(c.requests);
  s.responses_2xx = load(c.responses_2xx);
  s.responses_4xx = load(c.responses_4xx);
  s.responses_5xx = load(c.responses_5xx);
  s.backpressure_429 = load(c.backpressure_429);
  s.overload_503 = load(c.overload_503);
  s.quorum_503 = load(c.quorum_503);
  s.parse_errors = load(c.parse_errors);
  s.sessions_created = load(c.sessions_created);
  s.sessions_expired = load(c.sessions_expired);
  s.docs_ingested = load(c.docs_ingested);
  s.sessions_open = load(c.sessions_open);
  return s;
}

}  // namespace lsi::serve
