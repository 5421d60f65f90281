#include "lsi/sharding/replica_set.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace lsi::core {

namespace {

/// Entries copied out of the log per replay round. Small enough that the
/// feed lock is never held long, large enough to make catch-up cheap.
constexpr std::size_t kReplayChunk = 128;

std::string replica_tag(const std::string& prefix, std::size_t r) {
  std::string tag;
  if (!prefix.empty()) {
    tag = prefix;
    tag += '.';
  }
  tag += 'r';
  tag += std::to_string(r);
  return tag;
}

}  // namespace

Status ReplicaOptions::Validate() const {
  if (replicas == 0) {
    return Status::InvalidArgument("ReplicaOptions: replicas must be >= 1");
  }
  if (write_quorum > replicas) {
    return Status::InvalidArgument(
        "ReplicaOptions: write_quorum " + std::to_string(write_quorum) +
        " exceeds replica count " + std::to_string(replicas));
  }
  if (eject_after_refusals == 0) {
    return Status::InvalidArgument(
        "ReplicaOptions: eject_after_refusals must be >= 1");
  }
  if (strike_interval < std::chrono::milliseconds::zero()) {
    return Status::InvalidArgument(
        "ReplicaOptions: strike_interval must be non-negative");
  }
  return Status::Ok();
}

ReplicaSet::ReplicaSet(LsiIndex index, const ReplicaOptions& opts)
    : opts_(opts) {
  replicas_.reserve(opts_.replicas);
  for (std::size_t r = 0; r < opts_.replicas; ++r) {
    ConcurrentOptions copts = opts_.concurrent;
    copts.failpoint_tag = replica_tag(opts_.concurrent.failpoint_tag, r);
    // Every replica starts from a copy of the same built index, so replica
    // snapshots agree from generation 1 onward; the last takes it by move.
    LsiIndex base = (r + 1 < opts_.replicas) ? index : std::move(index);
    replicas_.push_back(std::make_unique<Replica>(std::move(base), copts,
                                                  copts.failpoint_tag));
    if (opts_.query_threads > 0) {
      replicas_.back()->gate->pool =
          std::make_unique<util::ThreadPool>(opts_.query_threads);
    }
  }
}

ReplicaSet::~ReplicaSet() { shutdown(); }

Status ReplicaSet::add(text::Document doc) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(feed_mu_);
      const Status st = try_add_locked(doc);
      if (st.code() != StatusCode::kResourceExhausted) return st;
    }
    // Uniform backpressure: every healthy replica's queue is full. The
    // writers only pop, so space appears without any signal we could wait
    // on across queues — bounded poll, mirroring what a blocking push
    // against a single queue would cost under saturation.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Status ReplicaSet::try_add(text::Document doc) {
  std::lock_guard<std::mutex> lock(feed_mu_);
  return try_add_locked(doc);
}

Status ReplicaSet::try_add_locked(const text::Document& doc) {
  for (;;) {
    if (shutdown_) {
      return Status::FailedPrecondition("ReplicaSet is shut down");
    }
    std::vector<std::size_t> healthy;
    std::vector<std::size_t> full;
    healthy.reserve(replicas_.size());
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      Replica& rep = *replicas_[r];
      if (rep.state.load(std::memory_order_acquire) !=
          ReplicaState::kHealthy) {
        continue;
      }
      healthy.push_back(r);
      // Probe before feeding: writers only pop, and this thread (under
      // feed_mu_) is the only pusher, so queued() < capacity here means the
      // try_add below cannot refuse — the fan-out either feeds every
      // healthy replica or feeds none.
      if (rep.indexer.queued() >= rep.indexer.queue_capacity()) {
        full.push_back(r);
      }
    }
    if (healthy.size() < opts_.quorum()) {
      return Status::Unavailable(
          "replica write quorum lost (" + std::to_string(healthy.size()) +
          " healthy < quorum " + std::to_string(opts_.quorum()) + ")");
    }
    if (full.size() == healthy.size()) {
      // Uniform backpressure is load, not a fault: nobody gets a strike.
      obs::count("replica.backpressure");
      return Status::ResourceExhausted(
          "every healthy replica's ingest queue is full (capacity " +
          std::to_string(replicas_[full.front()]->indexer.queue_capacity()) +
          ")");
    }
    if (full.empty()) {
      log_.push_back({LogEntry::Kind::kDoc, doc});
      const std::uint64_t seq = ++next_seq_;
      for (std::size_t r : healthy) {
        Replica& rep = *replicas_[r];
        const Status st = rep.indexer.try_add(doc);
        if (!st.ok()) {
          // The probe guaranteed space and nothing else pushes; reaching
          // here means the single-pusher invariant was broken.
          return Status::Internal("replica " + std::to_string(r) +
                                  " refused a probed fold-in: " +
                                  st.to_string());
        }
        rep.fed.store(seq, std::memory_order_release);
        rep.strikes = 0;
      }
      trim_log_locked();
      return Status::Ok();
    }
    // Some healthy replicas are full while siblings have space. Entries are
    // positional — feeding only the replicas with room would fork their
    // document sequences — so nobody is fed. A full replica that is still
    // folding (fold counter moved since its last strike) is just behind;
    // one whose counter stays frozen for strike_interval after the previous
    // strike earns another. The interval is load-bearing: the blocking
    // add() retries on a microsecond poll, and without it a writer the
    // scheduler merely hasn't run yet would collect every strike before its
    // first chance to fold (observed as spurious ejections under TSan's
    // serialized scheduling).
    bool ejected = false;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t r : full) {
      Replica& rep = *replicas_[r];
      const std::uint64_t folded = rep.indexer.ingested();
      if (rep.strikes > 0 && folded == rep.strike_ingested) {
        if (now - rep.strike_time >= opts_.strike_interval) {
          ++rep.strikes;
          rep.strike_time = now;
        }
      } else {
        rep.strikes = 1;
        rep.strike_ingested = folded;
        rep.strike_time = now;
      }
      if (rep.strikes >= opts_.eject_after_refusals) {
        eject_locked(r);
        ejected = true;
      }
    }
    if (ejected) continue;  // retry against the surviving set
    return Status::ResourceExhausted(
        "replica fold-in stalled behind a full sibling queue (strike " +
        std::to_string(replicas_[full.front()]->strikes) + "/" +
        std::to_string(opts_.eject_after_refusals) + ")");
  }
}

void ReplicaSet::flush() {
  for (auto& rep : replicas_) {
    if (rep->state.load(std::memory_order_acquire) ==
        ReplicaState::kHealthy) {
      rep->indexer.flush();
    }
  }
}

Status ReplicaSet::consolidate() {
  std::lock_guard<std::mutex> lock(feed_mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("ReplicaSet is shut down");
  }
  // The marker and the per-replica consolidations happen under the feed
  // lock, so every healthy replica consolidates at exactly this log
  // position; an ejected replica replays the marker at the same position.
  log_.push_back({LogEntry::Kind::kConsolidate, {}});
  const std::uint64_t seq = ++next_seq_;
  Status first = Status::Ok();
  for (auto& rep : replicas_) {
    if (rep->state.load(std::memory_order_acquire) !=
        ReplicaState::kHealthy) {
      continue;
    }
    rep->fed.store(seq, std::memory_order_release);
    // consolidate() drains the replica's queue first, so everything fed
    // before the marker is folded before the basis recompute.
    const Status st = rep->indexer.consolidate();
    if (first.ok() && !st.ok()) first = st;
  }
  trim_log_locked();
  return first;
}

void ReplicaSet::shutdown() {
  {
    std::lock_guard<std::mutex> lock(feed_mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  for (auto& rep : replicas_) rep->indexer.shutdown();
}

ReplicaSet::ReadRef ReplicaSet::pick_reader() const {
  const std::size_t n = replicas_.size();
  std::size_t chosen = n;
  if (opts_.read_policy == ReadPolicy::kLeastLoaded) {
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = 0; r < n; ++r) {
      const Replica& rep = *replicas_[r];
      if (rep.state.load(std::memory_order_acquire) !=
          ReplicaState::kHealthy) {
        continue;
      }
      const std::size_t load =
          rep.gate->in_flight.load(std::memory_order_relaxed);
      if (load < best) {  // strict <: ties resolve to the lower index
        best = load;
        chosen = r;
      }
    }
  } else {
    const std::uint64_t start =
        rr_next_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = (start + i) % n;
      if (replicas_[r]->state.load(std::memory_order_acquire) ==
          ReplicaState::kHealthy) {
        chosen = r;
        break;
      }
    }
  }
  if (chosen == n) {
    // Zero healthy replicas: reads degrade to stale-but-valid snapshots
    // rather than failing — prefer one that is at least replaying forward.
    obs::count("replica.stale_reads");
    chosen = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (replicas_[r]->state.load(std::memory_order_acquire) ==
          ReplicaState::kReplaying) {
        chosen = r;
        break;
      }
    }
  }
  const Replica& rep = *replicas_[chosen];
  return ReadRef{rep.indexer.snapshot(), chosen, rep.gate};
}

Status ReplicaSet::eject(std::size_t r) {
  if (r >= replicas_.size()) {
    return Status::InvalidArgument("replica index " + std::to_string(r) +
                                   " out of range (replicas=" +
                                   std::to_string(replicas_.size()) + ")");
  }
  std::lock_guard<std::mutex> lock(feed_mu_);
  if (replicas_[r]->state.load(std::memory_order_acquire) !=
      ReplicaState::kHealthy) {
    return Status::FailedPrecondition(
        "replica " + std::to_string(r) + " is not healthy (state " +
        std::string(replica_state_name(
            replicas_[r]->state.load(std::memory_order_acquire))) +
        ")");
  }
  eject_locked(r);
  return Status::Ok();
}

void ReplicaSet::eject_locked(std::size_t r) {
  Replica& rep = *replicas_[r];
  rep.state.store(ReplicaState::kEjected, std::memory_order_release);
  rep.strikes = 0;
  rep.health_observed = false;
  obs::count("replica.ejections");
}

Status ReplicaSet::readmit(std::size_t r) {
  if (r >= replicas_.size()) {
    return Status::InvalidArgument("replica index " + std::to_string(r) +
                                   " out of range (replicas=" +
                                   std::to_string(replicas_.size()) + ")");
  }
  Replica& rep = *replicas_[r];
  {
    std::lock_guard<std::mutex> lock(feed_mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("ReplicaSet is shut down");
    }
    if (rep.state.load(std::memory_order_acquire) != ReplicaState::kEjected) {
      return Status::FailedPrecondition(
          "replica " + std::to_string(r) + " is not ejected (state " +
          std::string(replica_state_name(
              rep.state.load(std::memory_order_acquire))) +
          ")");
    }
    rep.state.store(ReplicaState::kReplaying, std::memory_order_release);
  }
  obs::count("replica.readmits");
  // Replay in chunks: copy a slice of the log under the feed lock, apply it
  // with the lock dropped (fold-ins are slow), repeat until the cursor
  // catches the tail, then rejoin atomically. Writers keep appending
  // throughout — the loop terminates once replay outruns ingest.
  for (;;) {
    std::vector<LogEntry> chunk;
    {
      std::lock_guard<std::mutex> lock(feed_mu_);
      if (shutdown_) {
        rep.state.store(ReplicaState::kEjected, std::memory_order_release);
        return Status::FailedPrecondition("ReplicaSet is shut down");
      }
      const std::uint64_t from = rep.fed.load(std::memory_order_acquire);
      if (from < log_base_) {
        // trim_log_locked keeps everything above min(fed), so this is
        // unreachable unless the cursor invariant broke.
        rep.state.store(ReplicaState::kEjected, std::memory_order_release);
        return Status::Internal(
            "replica " + std::to_string(r) + " replay cursor " +
            std::to_string(from) + " below log base " +
            std::to_string(log_base_));
      }
      const std::size_t offset = from - log_base_;
      if (offset >= log_.size()) {
        // Caught up, and the lock is held: rejoining here means no entry
        // can slip between the last replayed one and the first fed one.
        rep.state.store(ReplicaState::kHealthy, std::memory_order_release);
        rep.strikes = 0;
        rep.health_observed = false;
        return Status::Ok();
      }
      const std::size_t take = std::min(log_.size() - offset, kReplayChunk);
      chunk.assign(log_.begin() + offset, log_.begin() + offset + take);
    }
    for (LogEntry& entry : chunk) {
      (void)LSI_FAILPOINT("replica.replay", rep.tag);
      Status st = Status::Ok();
      if (entry.kind == LogEntry::Kind::kDoc) {
        st = rep.indexer.add(std::move(entry.doc));
      } else {
        st = rep.indexer.consolidate();
      }
      if (!st.ok()) {
        rep.state.store(ReplicaState::kEjected, std::memory_order_release);
        return st;
      }
      rep.fed.fetch_add(1, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> lock(feed_mu_);
      trim_log_locked();
    }
  }
}

std::size_t ReplicaSet::check_health() {
  std::lock_guard<std::mutex> lock(feed_mu_);
  std::size_t ejected = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (rep.state.load(std::memory_order_acquire) !=
        ReplicaState::kHealthy) {
      continue;
    }
    // An armed "replica.health_probe" kFail for this replica's tag models a
    // probe timeout / crashed process.
    if (LSI_FAILPOINT("replica.health_probe", rep.tag)) {
      eject_locked(r);
      ++ejected;
      continue;
    }
    const std::size_t queued = rep.indexer.queued();
    const std::uint64_t folded = rep.indexer.ingested();
    const std::size_t capacity = rep.indexer.queue_capacity();
    const bool stuck_full = queued >= capacity;
    if (stuck_full && rep.health_observed && rep.health_queued >= capacity &&
        folded == rep.health_ingested) {
      // Two consecutive probes saw a full queue with zero fold progress:
      // the writer is wedged, not merely busy.
      eject_locked(r);
      ++ejected;
      continue;
    }
    rep.health_queued = queued;
    rep.health_ingested = folded;
    rep.health_observed = true;
  }
  obs::gauge("replica.healthy",
             static_cast<double>(replicas_.size() - ejected));
  return ejected;
}

std::size_t ReplicaSet::healthy_count() const {
  std::size_t n = 0;
  for (const auto& rep : replicas_) {
    if (rep->state.load(std::memory_order_acquire) ==
        ReplicaState::kHealthy) {
      ++n;
    }
  }
  return n;
}

ReplicaState ReplicaSet::state(std::size_t r) const {
  return replicas_[r]->state.load(std::memory_order_acquire);
}

std::uint64_t ReplicaSet::ingested() const {
  std::uint64_t best = 0;
  for (const auto& rep : replicas_) {
    best = std::max(best, rep->indexer.ingested());
  }
  return best;
}

std::uint64_t ReplicaSet::next_seq() const {
  std::lock_guard<std::mutex> lock(feed_mu_);
  return next_seq_;
}

std::size_t ReplicaSet::log_entries() const {
  std::lock_guard<std::mutex> lock(feed_mu_);
  return log_.size();
}

std::vector<ReplicaSet::ReplicaInfo> ReplicaSet::replica_infos() const {
  std::vector<ReplicaInfo> out;
  out.reserve(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const Replica& rep = *replicas_[r];
    ReplicaInfo info;
    info.replica = r;
    info.state = rep.state.load(std::memory_order_acquire);
    info.fed = rep.fed.load(std::memory_order_acquire);
    info.queued = rep.indexer.queued();
    info.in_flight = rep.gate->in_flight.load(std::memory_order_relaxed);
    info.generation = rep.indexer.snapshot()->generation();
    info.ingested = rep.indexer.ingested();
    info.publishes = rep.indexer.publishes();
    info.consolidations = rep.indexer.consolidations();
    out.push_back(info);
  }
  return out;
}

void ReplicaSet::trim_log_locked() {
  std::uint64_t min_fed = next_seq_;
  for (const auto& rep : replicas_) {
    min_fed = std::min(min_fed, rep->fed.load(std::memory_order_acquire));
  }
  while (log_base_ < min_fed && !log_.empty()) {
    log_.pop_front();
    ++log_base_;
  }
}

}  // namespace lsi::core
