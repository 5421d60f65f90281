#pragma once
// Per-client session state for the query daemon (docs/SERVING.md): a token-
// keyed table where each session holds a refcounted pin over one
// ShardedSnapshot generation vector plus the paging cursor of its last
// query.
//
// Why pin: consolidation retires and republishes shard snapshots underneath
// long-lived readers. A session that pages through a ranking must keep
// answering from the generation it started on — both for cursor stability
// (page 3 of the old ranking is meaningless against a new one) and for
// memory safety (the pin handle keeps the retired snapshots alive; see
// ShardedIndex::pin_snapshot). Read-your-writes is a pin *refresh*: after a
// session's own ingest is flushed, the server replaces its pin with the
// current view, so the session's subsequent reads include its writes while
// other sessions keep their older pinned generations.
//
// The table is deliberately NOT thread-safe: the daemon is a single event-
// loop thread and every access happens there (the same discipline keeps the
// connection table lock-free).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lsi/sharding/sharded_index.hpp"
#include "util/rng.hpp"

namespace lsi::serve {

struct Session {
  std::string token;
  /// The pinned read view every search in this session answers from.
  std::shared_ptr<const core::ShardedSnapshot> pin;
  std::chrono::steady_clock::time_point last_used;

  /// Paging state of the session's most recent query: the full gather
  /// result (hits and facets) is computed once against the pin and paged
  /// out by cursor. A change in either the query text or the knobs that can
  /// alter the response (nprobe/recall/exact/merge/rrf_k/collapse/facets)
  /// invalidates the cache and re-ranks; `last_options_key` is the
  /// server's canonical encoding of those knobs.
  std::string last_query;
  std::string last_options_key;
  core::ShardedSnapshot::GatherResult result;
  std::size_t cursor = 0;

  /// Documents this session ingested (reported by /stats).
  std::uint64_t writes = 0;
};

/// Token-keyed session store with LRU-free TTL expiry (sessions die
/// `ttl` after their last touch, checked on the loop's housekeeping tick).
class SessionTable {
 public:
  /// Seeds the token generator from std::random_device, so no two tables
  /// (and no two daemons) hand out the same tokens.
  explicit SessionTable(std::chrono::seconds ttl);

  /// Creates a session holding `pin`; returns nullptr when the table is
  /// full (the caller answers 503). The returned pointer stays
  /// valid until the session is released or expires.
  Session* create(std::shared_ptr<const core::ShardedSnapshot> pin,
                  std::chrono::steady_clock::time_point now);

  /// Looks up and touches; nullptr for unknown tokens.
  Session* find(std::string_view token,
                std::chrono::steady_clock::time_point now);

  /// Explicit release (DELETE /session). False for unknown tokens.
  bool release(std::string_view token);

  /// Drops every session idle past the TTL; returns how many.
  std::size_t evict_expired(std::chrono::steady_clock::time_point now);

  /// Releases everything (drain: every pin drops with it).
  void clear() { sessions_.clear(); }

  std::size_t size() const noexcept { return sessions_.size(); }
  std::chrono::seconds ttl() const noexcept { return ttl_; }

 private:
  std::chrono::seconds ttl_;
  util::Rng rng_;
  std::uint64_t next_serial_ = 0;
  std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;
};

}  // namespace lsi::serve
