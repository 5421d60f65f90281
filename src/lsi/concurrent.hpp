#pragma once
// Serve-while-updating: a concurrent, snapshot-published index.
//
// Section 5.6 of the paper names "perform SVD-updating in real-time for
// databases that change frequently" as an open problem; IncrementalIndexer
// (incremental.hpp) answers the *algorithmic* half with fold-now /
// consolidate-later ingestion but assumes a single thread. This header adds
// the *systems* half: queries keep being served, at full speed and with
// stable results, while documents stream in.
//
// Protocol (docs/CONCURRENCY.md has the full walkthrough):
//
//   * Readers never wait on writer work. ConcurrentIndexer::snapshot()
//     hands out a std::shared_ptr<const IndexSnapshot> — an immutable
//     (SemanticSpace, labels, generation) triple — copied under a mutex
//     held only for that pointer copy, never during fold-in, SVD-update,
//     or snapshot construction. Successive snapshots share every byte a
//     fold-in did not change (U, sigma, the term norms, every 512-row block
//     of V, its norms and labels, the ANN base), and no published byte is
//     ever written again, so a fold-in publish costs O(p k) plus a small
//     constant instead of a copy of the shard. A query's entire project/score/select
//     pass runs against that one snapshot, so a reader can never observe a
//     half-consolidated basis, a V/labels length mismatch, or a norm cache
//     from a different generation. Every published space has its per-mode
//     doc-norm caches prewarmed, making cache validity a property of
//     snapshot *construction* rather than reader locking.
//
//   * Writers are serialized on one background thread (a dedicated
//     util::ThreadPool of size 1). add()/try_add() enqueue documents into a
//     bounded util::BoundedQueue; the writer drains them in arrival order,
//     folds them into its private master index (Equation 7), consolidates
//     via SVD-update when the fold-in budget is exhausted (Section 4.3),
//     and publishes a fresh snapshot with one pointer swap under the
//     snapshot mutex.
//
//   * Backpressure is explicit: add() blocks while the queue is at
//     capacity, try_add() returns kResourceExhausted instead, and both
//     return kFailedPrecondition after shutdown(). Accepted documents are
//     never dropped — shutdown drains the queue before returning.
//
// Determinism: with a single producer, the fold/consolidate sequence is
// identical to running IncrementalIndexer with the same consolidation
// budget, so the published space is bit-identical to the sequential result
// (the concurrent parity tests assert exactly this).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lsi/ann.hpp"
#include "lsi/gather/dedup.hpp"
#include "lsi/incremental.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/search_options.hpp"
#include "lsi/status.hpp"
#include "util/bounded_queue.hpp"
#include "util/row_blocks.hpp"
#include "util/thread_pool.hpp"

namespace lsi::core {

struct ConcurrentOptions {
  /// Ingest queue capacity: add() blocks and try_add() refuses beyond this.
  std::size_t queue_capacity = 256;
  /// Consolidate (SVD-update) once this many folded-but-unconsolidated
  /// documents accumulate (0 = only on explicit consolidate()).
  std::size_t consolidate_every = 64;
  /// Documents folded per snapshot publish: larger batches amortize the
  /// publish's fixed cost (a few shared-pointer copies and the ANN tail
  /// regroup; nothing of size n is copied), smaller ones shrink the
  /// ingestion-to-visibility latency.
  std::size_t max_batch = 16;
  /// Use the exact (residual-carrying) SVD-update when consolidating.
  bool exact_update = false;
  /// Cluster-pruned candidate generation (lsi/ann.hpp): above
  /// `ann.exact_cutoff` documents every published snapshot carries an
  /// AnnIndex, rotated at consolidation (V rotates; AnnIndex::rotate
  /// rebuilds by its fixed rules) and extended at fold-publishes (rows
  /// append; the base partition is shared, only its tail is regrouped) —
  /// the same maintenance split as the prewarmed doc-norm caches.
  AnnOptions ann;
  /// Instance tag this indexer passes to its failpoint sites
  /// (util/failpoint.hpp) — "s<shard>.r<replica>" under a ReplicaSet, so a
  /// chaos test wedges exactly one replica. Empty = matches "" filters only.
  std::string failpoint_tag;
};

/// An immutable, atomically-published view of the index at one generation.
/// Everything reachable from a snapshot is const and stays valid for as
/// long as the shared_ptr is held — queries made through one snapshot are
/// mutually consistent and repeatable even while the writer publishes newer
/// generations.
class IndexSnapshot {
 public:
  using clock = std::chrono::steady_clock;

  /// Assembled by ConcurrentIndexer::publish (directly constructible for
  /// tests). `space` must already have its doc-norm caches prewarmed if the
  /// snapshot will be shared across threads. `profiles` must only hold
  /// profiles of this space's U, sigma and V rows; without one the gather
  /// reconstructs every profile it needs.
  IndexSnapshot(std::shared_ptr<const SemanticSpace> space,
                util::RowBlocks<std::string> labels,
                std::shared_ptr<const SnapshotQueryContext> ctx,
                std::uint64_t generation, std::size_t unconsolidated,
                clock::time_point published_at,
                std::shared_ptr<const AnnIndex> ann = nullptr,
                std::shared_ptr<gather::ProfileCache> profiles = nullptr)
      : space_(std::move(space)),
        labels_(std::move(labels)),
        ctx_(std::move(ctx)),
        ann_(std::move(ann)),
        profiles_(std::move(profiles)),
        generation_(generation),
        unconsolidated_(unconsolidated),
        published_at_(published_at) {}

  const SemanticSpace& space() const noexcept { return *space_; }
  /// Shared ownership of the space, for pinning a BatchedRetriever.
  const std::shared_ptr<const SemanticSpace>& space_ptr() const noexcept {
    return space_;
  }
  /// The snapshot's cluster-pruned candidate generator (lsi/ann.hpp), built
  /// at publish like the prewarmed norm caches; null below the exact-scan
  /// cutoff or when disabled — queries then take the exact path.
  const std::shared_ptr<const AnnIndex>& ann() const noexcept { return ann_; }
  /// One label per row of V, in V's 512-row blocks (shared with the
  /// snapshots before and after this one, like V).
  const util::RowBlocks<std::string>& doc_labels() const noexcept {
    return labels_;
  }
  const SnapshotQueryContext& context() const noexcept { return *ctx_; }
  /// The term-profile cache the collapse gather reads and fills
  /// (gather::term_profiles), shared by every snapshot of one consolidation
  /// generation; null for a hand-built snapshot. Internally synchronized.
  gather::ProfileCache* profile_cache() const noexcept {
    return profiles_.get();
  }

  /// Publish sequence number (1 = the base index, strictly increasing).
  std::uint64_t generation() const noexcept { return generation_; }
  /// Folded-but-unconsolidated documents at publish time (basis-distortion
  /// debt in the Section 4.3 sense).
  std::size_t unconsolidated() const noexcept { return unconsolidated_; }
  /// Seconds since this snapshot was published.
  double age_seconds() const {
    return std::chrono::duration<double>(clock::now() - published_at_)
        .count();
  }

  /// Free-text retrieval pinned to this snapshot: parse + weight via the
  /// shared context, project (Equation 6), rank — through the pruned path
  /// when opts.search admits it and the snapshot carries an AnnIndex.
  /// Labels resolve against this snapshot's label list, which is always
  /// length-consistent with V.
  std::vector<QueryResult> query(std::string_view text,
                                 const SearchOptions& opts = {},
                                 QueryStats* stats = nullptr) const;

  /// Ranks an already-weighted m-vector against this snapshot.
  std::vector<ScoredDoc> retrieve(const la::Vector& term_vector,
                                  const SearchOptions& opts = {},
                                  QueryStats* stats = nullptr) const;

 private:
  std::shared_ptr<const SemanticSpace> space_;
  util::RowBlocks<std::string> labels_;
  std::shared_ptr<const SnapshotQueryContext> ctx_;
  std::shared_ptr<const AnnIndex> ann_;
  std::shared_ptr<gather::ProfileCache> profiles_;
  std::uint64_t generation_;
  std::size_t unconsolidated_;
  clock::time_point published_at_;
};

/// Ingest-and-serve wrapper: readers acquire snapshots, writers enqueue
/// documents; one background thread folds, consolidates and publishes.
/// Thread-safe throughout; see the header comment for the protocol and
/// docs/CONCURRENCY.md for the design discussion.
class ConcurrentIndexer {
 public:
  explicit ConcurrentIndexer(LsiIndex index,
                             const ConcurrentOptions& opts = {});
  ~ConcurrentIndexer();

  ConcurrentIndexer(const ConcurrentIndexer&) = delete;
  ConcurrentIndexer& operator=(const ConcurrentIndexer&) = delete;

  /// Enqueues one document, blocking while the ingest queue is at capacity
  /// (backpressure). Fails with kFailedPrecondition after shutdown().
  Status add(text::Document doc);

  /// Non-blocking enqueue: kResourceExhausted when the queue is full (the
  /// caller's signal to shed load or retry), kFailedPrecondition after
  /// shutdown().
  Status try_add(text::Document doc);

  /// Blocks until every document accepted so far has been folded in and a
  /// snapshot containing it has been published.
  void flush();

  /// Requests an SVD-update consolidation of any folded-but-unconsolidated
  /// documents and blocks until it (and all prior ingestion) is published.
  /// Fails with kFailedPrecondition after shutdown().
  Status consolidate();

  /// Stops accepting documents, drains everything already accepted (final
  /// snapshot published) and joins the writer. Idempotent; also run by the
  /// destructor.
  void shutdown();

  /// The current snapshot: copies one shared_ptr under snapshot_mu_ and
  /// never observes partial state. The mutex covers only that pointer copy
  /// (nanoseconds) — never fold-in, SVD-update, or publish construction —
  /// so readers never wait on writer *work*. Hold the returned pointer for
  /// the duration of a logical query (or batch) to pin all of its passes
  /// to one generation.
  ///
  /// (Why a mutex and not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic
  /// unlocks its internal spinlock with a relaxed RMW, which leaves no
  /// release/acquire edge ThreadSanitizer can see — every load/store pair
  /// is reported as a race. A plain mutex gives the same few-nanosecond
  /// critical section and a provable happens-before.)
  std::shared_ptr<const IndexSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Documents accepted but not yet folded into any snapshot.
  std::size_t queued() const { return queue_.size(); }
  /// Documents folded into the master index so far.
  std::uint64_t ingested() const noexcept {
    return ingested_.load(std::memory_order_relaxed);
  }
  /// Snapshots published so far (>= 1 once constructed).
  std::uint64_t publishes() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }
  /// SVD-update consolidations performed so far.
  std::uint64_t consolidations() const noexcept {
    return consolidations_.load(std::memory_order_relaxed);
  }
  /// True while the writer is inside an SVD-update consolidation — readers
  /// keep serving from the last published snapshot the whole time (the
  /// serving bench samples this to prove queries overlap consolidation).
  bool consolidating() const noexcept {
    return consolidating_.load(std::memory_order_acquire);
  }

  const ConcurrentOptions& options() const noexcept { return opts_; }

 private:
  /// Ensures a writer drain task is queued (caller must not hold mu_).
  void schedule_writer();
  /// Writer-thread main: drains the queue in batches until no work remains.
  void writer_drain();
  /// Folds a batch in arrival order, one fold-in per run between
  /// consolidation boundaries, applying the consolidation policy.
  void ingest_batch(std::span<const text::Document> batch);
  /// SVD-update of the pending fold-ins (writer thread only); a publish()
  /// follows every call.
  void consolidate_now();
  /// Prewarms the master's doc-norm caches, shares the master state into a
  /// fresh immutable snapshot (which inherits the warm caches), and
  /// atomically swaps it in (writer thread only).
  void publish();
  /// Blocks until the queue is empty and the writer is idle.
  void wait_idle();

  ConcurrentOptions opts_;
  IncrementalIndexer master_;  ///< writer-thread-only after construction
  util::BoundedQueue<text::Document> queue_;

  mutable std::mutex mu_;            ///< guards writer_active_
  std::condition_variable cv_idle_;  ///< signaled when the writer goes idle
  bool writer_active_ = false;       ///< a drain task is queued or running

  /// What a consolidation did to the documents it kept: their sigma-scaled
  /// rows x became x `map` (k x k, lsi/update.hpp); rows from `kept` on got
  /// new coordinates.
  struct Rotation {
    la::DenseMatrix map;
    index_t kept = 0;
  };

  /// Writer-thread-only state the next publish will ship with its space: the
  /// ANN structure and the term-profile cache. When `rotation_` is set (a
  /// consolidation rotated U, sigma and V since the last publish) the ANN
  /// structure is rotated by its map (AnnIndex::rotate) and the profile
  /// cache is replaced; across fold-ins, which only append V rows, the ANN
  /// structure is extended like extend_doc_norms and the profile cache is
  /// carried over as is.
  std::shared_ptr<const AnnIndex> master_ann_;
  /// The master's labels in V's block layout, appended to at publish.
  util::RowBlocks<std::string> master_labels_{1};
  std::shared_ptr<gather::ProfileCache> master_profiles_;
  std::optional<Rotation> rotation_;

  std::atomic<bool> force_consolidate_{false};
  std::atomic<bool> consolidating_{false};
  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> consolidations_{0};
  mutable std::mutex snapshot_mu_;  ///< guards only the snapshot_ pointer
  std::shared_ptr<const IndexSnapshot> snapshot_;

  /// Declared last: destroyed (and joined) first, while every member the
  /// drain task touches is still alive.
  util::ThreadPool writer_{1};
};

}  // namespace lsi::core
