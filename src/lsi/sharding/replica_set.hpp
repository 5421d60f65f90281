#pragma once
// Per-shard replication with failover (docs/REPLICATION.md).
//
// A ReplicaSet owns R ConcurrentIndexer replicas of ONE shard, all built
// from copies of the same LsiIndex. Writes go through a per-shard
// append-only ingest log under a single feed mutex: every accepted entry is
// appended once and fanned out to every healthy replica in the same order,
// so replicas fold the identical document sequence. Consolidation is
// per-replica — publish generations may skew across replicas — but because
// the fold order, the auto-consolidation policy (doc-count driven) and the
// ANN rotation point (publish-after-consolidation, with rebuild rules over
// the space and the document counts) are all functions of the document
// sequence alone, quiesced replicas answer queries byte-identically
// (the read-parity property tests assert exactly this).
//
// Failover protocol:
//
//   eject    a replica leaves the feed. Explicit (operator/test), via a
//            health check (queue full with a frozen fold counter across two
//            consecutive checks, or an armed "replica.health_probe"
//            failpoint), or implicit: a replica whose queue is full while a
//            sibling has space has fallen out of the feed — entries are
//            positional, so after `eject_after_refusals` such observations
//            with no fold progress — each at least `strike_interval` after
//            the previous one, so a briefly-descheduled writer is never
//            mistaken for a parked one — it is ejected rather than allowed
//            to stall ingest forever. Uniform backpressure (every healthy
//            replica full) is NOT a fault: the caller gets
//            kResourceExhausted and nobody is ejected.
//   replay   readmit() replays the ingest log from the replica's fed
//            cursor (entries accepted into its queue are never dropped, so
//            the cursor is exact — nothing is skipped or applied twice),
//            then atomically rejoins the feed under the feed mutex.
//
// Reads: pick_reader() pins one healthy replica's snapshot per scatter,
// round-robin or least-loaded (in-flight gauge on the replica's ReadGate).
// With query_threads > 0 each replica serves scatter work on its own
// executor, so read throughput scales with healthy replica count — the
// bench_replicated_serving gate.
//
// Admission: an accepted entry requires >= write_quorum healthy replicas at
// append time (kUnavailable below quorum — HTTP 503); every healthy replica
// full is kResourceExhausted (HTTP 429). The log is the source of truth:
// once appended, an entry reaches ejected replicas via replay.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lsi/concurrent.hpp"
#include "lsi/status.hpp"
#include "util/thread_pool.hpp"

namespace lsi::core {

/// How pick_reader() chooses among healthy replicas.
enum class ReadPolicy {
  kRoundRobin,   ///< rotate through healthy replicas
  kLeastLoaded,  ///< fewest in-flight scatter passes; ties to lower index
};

/// Returns "round-robin" / "least-loaded".
constexpr std::string_view read_policy_name(ReadPolicy policy) noexcept {
  switch (policy) {
    case ReadPolicy::kRoundRobin: return "round-robin";
    case ReadPolicy::kLeastLoaded: return "least-loaded";
  }
  return "unknown";
}

enum class ReplicaState {
  kHealthy,    ///< in the feed, serving reads
  kEjected,    ///< out of the feed; snapshot still valid but stale
  kReplaying,  ///< readmit() in progress: catching up from the ingest log
};

/// Returns "healthy" / "ejected" / "replaying".
constexpr std::string_view replica_state_name(ReplicaState state) noexcept {
  switch (state) {
    case ReplicaState::kHealthy: return "healthy";
    case ReplicaState::kEjected: return "ejected";
    case ReplicaState::kReplaying: return "replaying";
  }
  return "unknown";
}

struct ReplicaOptions {
  /// Replicas per shard (R). 1 degenerates to a plain ConcurrentIndexer
  /// behind the same API.
  std::size_t replicas = 1;
  ReadPolicy read_policy = ReadPolicy::kRoundRobin;
  /// Per-replica read executor threads. 0 = scatter work runs where the
  /// caller's fan-out puts it (the shared scatter pool); > 0 gives every
  /// replica its own util::ThreadPool of this size, modeling independent
  /// replica serving capacity (reads then scale with healthy replicas).
  std::size_t query_threads = 0;
  /// Healthy replicas required to accept a write. 0 = majority of
  /// `replicas` (R=1 -> 1, R=2 -> 2, R=3 -> 2). Below quorum, writes fail
  /// with kUnavailable.
  std::size_t write_quorum = 0;
  /// Consecutive no-progress refusals (queue full while a sibling has
  /// space, fold counter frozen) before a replica is ejected from the feed.
  std::size_t eject_after_refusals = 3;
  /// Minimum time between successive strikes on the same replica — the
  /// bounded-queue timeout of the failure detector. Ejection therefore
  /// requires the queue to stay full with a frozen fold counter for at
  /// least (eject_after_refusals - 1) * strike_interval. Distinguishing a
  /// wedged writer from a merely-starved one is impossible from any single
  /// observation; the window is what keeps a busy-but-healthy replica (one
  /// the scheduler just hasn't run) from being ejected by a few
  /// microseconds-apart retry polls. A genuinely parked writer is frozen
  /// for ever, so failpoint-driven tests stay deterministic at any width.
  std::chrono::milliseconds strike_interval{50};
  /// Per-replica indexer configuration. `failpoint_tag` is used as a
  /// prefix: replica r hits failpoint sites tagged "<prefix>.r<r>" (or
  /// "r<r>" when the prefix is empty).
  ConcurrentOptions concurrent;

  /// First violation found, or OK.
  Status Validate() const;
  /// The resolved write quorum (majority when write_quorum == 0).
  std::size_t quorum() const noexcept {
    return write_quorum > 0 ? write_quorum : replicas / 2 + 1;
  }
};

/// Per-replica read-side state, shared with every pinned view that picked
/// this replica (outlives the ReplicaSet like a pinned snapshot does).
struct ReadGate {
  /// Scatter passes currently running against this replica — the
  /// queue-depth gauge the least-loaded policy reads.
  std::atomic<std::size_t> in_flight{0};
  /// The replica's private read executor (null when query_threads == 0).
  std::unique_ptr<util::ThreadPool> pool;
};

class ReplicaSet {
 public:
  /// Builds R replicas from copies of `index` (the last replica takes the
  /// argument by move, so R=1 copies nothing).
  ReplicaSet(LsiIndex index, const ReplicaOptions& opts);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Appends to the ingest log and fans out to every healthy replica,
  /// blocking (bounded poll) under uniform backpressure. kUnavailable below
  /// write quorum, kFailedPrecondition after shutdown().
  Status add(text::Document doc);

  /// Non-blocking variant: kResourceExhausted when every healthy replica's
  /// queue is full (uniform backpressure — nobody is ejected, nothing is
  /// logged), kUnavailable below quorum, kFailedPrecondition after
  /// shutdown(). A replica refusing while a sibling accepts accumulates
  /// ejection strikes (see the header comment).
  Status try_add(text::Document doc);

  /// Blocks until every healthy replica has folded and published everything
  /// it accepted. Ejected/replaying replicas are skipped (they catch up via
  /// replay).
  void flush();

  /// Appends a consolidation marker to the ingest log and consolidates
  /// every healthy replica at that exact log position (the feed mutex is
  /// held across the fan-out, so no entry lands between a replica's last
  /// fold and its consolidation). Ejected replicas replay the marker.
  Status consolidate();

  /// Shuts down every replica's indexer (all states). Wedged writers must
  /// be released (failpoints disarmed) first or this blocks.
  void shutdown();

  /// One pinned reader choice: the chosen replica's current snapshot, its
  /// index, and its ReadGate (for in-flight accounting and the replica's
  /// executor). Healthy replicas preferred; with none, a replaying — then
  /// any — replica serves degraded-but-valid stale reads.
  struct ReadRef {
    std::shared_ptr<const IndexSnapshot> snapshot;
    std::size_t replica = 0;
    std::shared_ptr<ReadGate> gate;
  };
  ReadRef pick_reader() const;

  /// Removes replica `r` from the feed (explicit wedge/kill). Its pinned
  /// snapshots stay valid. kFailedPrecondition unless currently healthy.
  Status eject(std::size_t r);

  /// Replays the ingest log from replica `r`'s fed cursor, then rejoins the
  /// feed atomically once caught up. Runs on the calling thread; under
  /// sustained saturation ingest it may chase the log for a while.
  /// kFailedPrecondition unless currently ejected.
  Status readmit(std::size_t r);

  /// Evaluates every healthy replica: an armed "replica.health_probe"
  /// failpoint (kFail) or a full queue with a frozen fold counter across
  /// two consecutive checks ejects it. Returns how many were ejected.
  std::size_t check_health();

  std::size_t num_replicas() const noexcept { return replicas_.size(); }
  std::size_t healthy_count() const;
  ReplicaState state(std::size_t r) const;

  /// Documents folded so far (max over replicas — the most caught-up one).
  std::uint64_t ingested() const;

  /// Next log sequence number (== entries ever accepted).
  std::uint64_t next_seq() const;
  /// Entries currently retained in the log (trimmed below the slowest
  /// replica's fed cursor; an ejected replica freezes its cursor and
  /// therefore the tail it will replay).
  std::size_t log_entries() const;

  /// Point-in-time per-replica row for /stats and the CLI.
  struct ReplicaInfo {
    std::size_t replica = 0;
    ReplicaState state = ReplicaState::kHealthy;
    std::uint64_t fed = 0;  ///< log entries accepted (the replay cursor)
    std::size_t queued = 0;
    std::size_t in_flight = 0;
    std::uint64_t generation = 0;
    std::uint64_t ingested = 0;
    std::uint64_t publishes = 0;
    std::uint64_t consolidations = 0;
  };
  std::vector<ReplicaInfo> replica_infos() const;

  /// Direct access for tests and stats (r < num_replicas()).
  const ConcurrentIndexer& replica(std::size_t r) const {
    return replicas_[r]->indexer;
  }

  const ReplicaOptions& options() const noexcept { return opts_; }

 private:
  struct LogEntry {
    enum class Kind { kDoc, kConsolidate };
    Kind kind = Kind::kDoc;
    text::Document doc;
  };

  struct Replica {
    Replica(LsiIndex index, const ConcurrentOptions& copts, std::string t)
        : tag(std::move(t)),
          gate(std::make_shared<ReadGate>()),
          indexer(std::move(index), copts) {}

    std::string tag;  ///< failpoint instance tag, "s<shard>.r<replica>"
    std::shared_ptr<ReadGate> gate;
    std::atomic<ReplicaState> state{ReplicaState::kHealthy};
    /// Log entries accepted into this replica's queue — exact, because
    /// accepted entries are never dropped (BoundedQueue contract).
    std::atomic<std::uint64_t> fed{0};
    // Strike/health bookkeeping, all under feed_mu_.
    std::size_t strikes = 0;
    std::uint64_t strike_ingested = 0;
    std::chrono::steady_clock::time_point strike_time{};
    std::size_t health_queued = 0;
    std::uint64_t health_ingested = 0;
    bool health_observed = false;
    ConcurrentIndexer indexer;  ///< declared last: joins first
  };

  /// Core admission + fan-out; feed_mu_ held.
  Status try_add_locked(const text::Document& doc);
  void eject_locked(std::size_t r);
  /// Drops log entries every replica (any state) has already been fed.
  void trim_log_locked();

  ReplicaOptions opts_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex feed_mu_;  ///< serializes log append + fan-out
  std::deque<LogEntry> log_;
  std::uint64_t log_base_ = 0;  ///< sequence number of log_.front()
  std::uint64_t next_seq_ = 0;
  bool shutdown_ = false;

  mutable std::atomic<std::uint64_t> rr_next_{0};  ///< round-robin cursor
};

}  // namespace lsi::core
