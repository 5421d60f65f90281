#pragma once
// The LSI query daemon: an HTTP/1.1 serving layer over ShardedIndex
// (docs/SERVING.md has the full protocol). One epoll event-loop thread owns
// the listening socket, every connection, the parser state machines, and
// the session table; the heavy lifting under each request — scatter-gather
// retrieval, fold-in, consolidation — runs through the thread-safe
// ShardedIndex, so the daemon thread and the per-shard writer threads
// interact exactly as any other ConcurrentIndexer client.
//
// Command surface (JSON responses):
//
//   GET    /search?q=..&top=N[&session=T][&cursor=C]
//              [&nprobe=P | &recall=R | &exact=1][&deadline_ms=D]
//              [&merge=M][&rrf_k=K][&collapse=C][&facets=F]
//          nprobe/recall/exact steer the cluster-pruned candidate path
//          (lsi/search_options.hpp) and merge/rrf_k/collapse/facets the
//          gather (docs/GATHER.md); invalid values or combinations answer
//          400 with a precise message (deadline_ms is capped at one day)
//          and an expired deadline_ms answers 504. Every answer has one
//          schema: {"results":[{doc,label,score,cosine,shard,duplicates}],
//          "facets":[{term,weight}],"generations":[..]}, plus
//          session/cursor/total/more inside a session
//   POST   /ingest[?session=T][&wait=1]      body: "label\ttext" per line
//   POST   /consolidate
//   GET    /stats                            (chunked transfer coding;
//                                            per-replica rows per shard)
//   POST   /session          DELETE /session?session=T
//   GET    /healthz          POST   /shutdown
//   POST   /replica/eject?shard=S&replica=R
//   POST   /replica/readmit?shard=S&replica=R
//
// /healthz reports replication state (docs/REPLICATION.md): "ok" with every
// replica healthy, "degraded" (still 200 — the cluster serves, reads just
// lost headroom) when replicas are ejected but every shard keeps at least
// one, and 503 "unavailable" when some shard has zero healthy replicas
// (reads fall back to stale snapshots, writes cannot reach quorum).
// /replica/eject and /replica/readmit drive the failover protocol
// explicitly — the serve-smoke kill-one-replica step and the chaos tests
// use them; readmit replays the shard's ingest log before answering.
//
// Admission control maps the library's backpressure onto HTTP:
//
//   429 + Retry-After   a shard's bounded ingest queue refused a document
//                       (kResourceExhausted from try_add)
//   503 + Retry-After   connection/session tables full, the index is shut
//                       down (kFailedPrecondition), or a shard lost its
//                       replica write quorum (kUnavailable)
//
// Graceful drain (request_drain / POST /shutdown): stop accepting, answer
// everything already buffered, flush outputs, then close; sessions are
// released (dropping their snapshot pins) and the loop exits. A drain
// deadline force-closes stragglers so shutdown is bounded.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "lsi/sharding/sharded_index.hpp"
#include "serve/event_loop.hpp"
#include "serve/http.hpp"
#include "serve/session.hpp"
#include "util/json.hpp"

namespace lsi::serve {

struct ServerOptions {
  /// Loopback only by design: the daemon speaks plaintext HTTP/1.1.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result from HttpServer::port().
  std::uint16_t port = 0;
  std::size_t max_connections = 1024;
  std::chrono::seconds session_ttl{300};
  std::size_t default_page_size = 10;
};

class HttpServer {
 public:
  /// The index must outlive the server. The server never shuts the index
  /// down — drain only releases the serving-side state.
  HttpServer(core::ShardedIndex& index, ServerOptions opts = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Fails with
  /// kUnavailable-ish Internal on bind errors (port in use).
  Status start();

  /// The bound port (after start(); useful with opts.port = 0).
  std::uint16_t port() const noexcept { return bound_port_; }

  /// Begins graceful drain from any thread; returns immediately.
  void request_drain();

  /// Blocks until the loop thread exits (drain complete or /shutdown).
  void join();

  /// request_drain() + join(); stragglers are force-closed after the drain
  /// deadline.
  void drain();

  /// True once the loop thread has exited and serving state is released.
  bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  /// Serving counters, declared once: kept as atomics, read through stats()
  /// as a point-in-time copy (/stats renders it plus per-shard tables).
  template <typename T>
  struct Counters {
    T connections_accepted{};
    T connections_open{};
    T requests{};
    T responses_2xx{};
    T responses_4xx{};
    T responses_5xx{};
    T backpressure_429{};
    T overload_503{};  ///< connection-table overflow
    T quorum_503{};
    T parse_errors{};
    T sessions_created{};
    T sessions_expired{};
    T docs_ingested{};
    T sessions_open{};
  };
  using Stats = Counters<std::uint64_t>;
  Stats stats() const;

 private:
  struct Connection;
  enum class RunState : int { kRunning = 0, kDraining = 1, kStopped = 2 };

  void loop_main();
  void on_accept(std::uint32_t events);
  void on_connection_event(int fd, std::uint32_t events);
  void process_buffered(Connection& conn);
  void flush(Connection& conn);
  void close_connection(int fd);
  void tick();
  void finish_drain();

  HttpResponse dispatch(const HttpRequest& request);
  HttpResponse handle_search(const HttpRequest& request);
  HttpResponse handle_ingest(const HttpRequest& request);
  HttpResponse handle_consolidate(const HttpRequest& request);
  HttpResponse handle_stats(const HttpRequest& request);
  HttpResponse handle_session_create(const HttpRequest& request);
  HttpResponse handle_session_delete(const HttpRequest& request);
  HttpResponse handle_healthz();
  HttpResponse handle_replica_admin(const HttpRequest& request, bool eject);
  /// A response whose body is taken out of `json`; 429/503 get Retry-After.
  HttpResponse respond(int status, util::JsonWriter& json) const;
  /// respond() with the body {"error": message}.
  HttpResponse error_response(int status, std::string_view message) const;
  void count_response(int status);

  core::ShardedIndex& index_;
  ServerOptions opts_;
  EventLoop loop_;
  SessionTable sessions_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<int> state_{static_cast<int>(RunState::kRunning)};
  std::atomic<bool> stopped_{false};
  std::chrono::steady_clock::time_point started_at_;
  std::chrono::steady_clock::time_point drain_started_;

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  // Counters are written on the loop thread, read from anywhere.
  Counters<std::atomic<std::uint64_t>> counters_;
};

}  // namespace lsi::serve
