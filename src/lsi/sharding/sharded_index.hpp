#pragma once
// Sharded LSI index with scatter-gather query serving (docs/SHARDING.md).
//
// The paper's TREC section (Section 6) could not compute one SVD over the
// full collection and decomposed it into subcollections, each with its own
// truncated SVD; this header is that decomposition as a first-class
// subsystem. A ShardedIndex partitions a collection into N shards by a
// ShardRouter policy; each shard owns a full, independent pipeline — its own
// vocabulary, Equation-5 weighting, truncated SVD, and a ConcurrentIndexer
// writer with an independent bounded ingest queue (backpressure is per
// shard: one hot shard refusing documents does not stall the others).
//
// Queries are served scatter-gather against a ShardedSnapshot, which pins
// ONE IndexSnapshot per shard — the multi-shard analogue of the concurrent
// index's snapshot consistency contract: every shard's project/score/select
// pass runs against the same pinned generation vector, so a query never
// mixes a shard's pre-consolidation basis with another's post-consolidation
// one from a later publish.
//
//   scatter  each shard projects the whole query batch once against its own
//            (U_k, S_k) — the batched Equation 6 via QueryBatch — and ranks
//            it with the shard-local BatchedRetriever into a per-shard
//            bounded top-z heap; shards fan out across a dedicated pool;
//   gather   per-shard rankings are mapped from shard-local document
//            indices to global document ids and merged with the shared
//            lsi/ranking.hpp comparator (cosine descending, global id
//            ascending) into one deterministic global top-z.
//
// With N = 1 the scatter is a single BatchedRetriever pass and the gather a
// truncation, so the sharded path is bit-identical to the monolithic batched
// engine (the parity tests assert this). With N > 1 each shard's SVD spans
// only its own subcollection, so scores are computed in N different latent
// spaces — the deliberate TREC trade-off: per-shard SVDs are cheaper to
// build, cheaper to update, and cheaper to score (n/N documents against
// k/N factors under the default split-k budget), at the cost of rank
// blending across independently-estimated spaces (docs/SHARDING.md
// quantifies the overlap against the monolithic index).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "lsi/gather/facets.hpp"
#include "lsi/gather/fusion.hpp"
#include "lsi/gather/term_stats.hpp"
#include "lsi/sharding/replica_set.hpp"
#include "lsi/sharding/router.hpp"
#include "lsi/status.hpp"

namespace lsi::core {

/// A sharded build's configuration. The replication fields (replicas,
/// read_policy, query_threads, write_quorum, eject_after_refusals,
/// strike_interval) and each shard's ConcurrentIndexer configuration
/// (`concurrent`) are the inherited ReplicaOptions, applied to every shard:
/// queue capacity bounds each shard's ingest backpressure independently of
/// its siblings, and every replica of a shard gets the same configuration.
struct ShardingOptions : ReplicaOptions {
  std::size_t num_shards = 4;
  RoutingPolicy routing = RoutingPolicy::kRoundRobin;
  /// Per-shard pipeline configuration. `index.k` is the TOTAL factor
  /// budget: with `split_k_budget` (the default) shard s receives
  /// k/N + (s < k mod N) factors, so the factor count summed across shards
  /// equals the monolithic budget — the "equal total k-budget" contract the
  /// sharded-vs-monolithic benches compare under. With it off, every shard
  /// uses `index.k` outright (N times the monolithic budget).
  IndexOptions index;
  bool split_k_budget = true;
  /// Floor applied to every per-shard factor count after the split (a shard
  /// with one factor is a degenerate ranking).
  index_t min_shard_k = 2;

  /// Cross-shard term-statistics exchange (docs/GATHER.md). When on, the
  /// build runs a statistics pass before any shard weights its slice:
  /// per-shard {df, gf, sum tf log2 tf, sum tf^2} partials are merged into
  /// one versioned GlobalTermStats snapshot, and every shard derives its
  /// Equation-5 GLOBAL weights from it — so all shards agree on every
  /// term's global weight exactly as a monolithic build would (numerically
  /// identical, not bit-identical: the additive entropy identity reorders
  /// the floating-point sum). Off (the default) keeps per-shard statistics
  /// and bit-identical builds. Streamed adds keep accumulating into the
  /// exchange; refresh_term_stats() republishes the merged snapshot.
  bool share_term_stats = false;

  /// First violation found, ReplicaOptions::Validate() included, or OK
  /// (checked by ShardedIndex::try_build).
  Status Validate() const;
  /// The factor count the budget split assigns to shard `shard`.
  index_t shard_k(std::size_t shard) const;
};

/// A consistent multi-shard read view: one pinned IndexSnapshot (plus the
/// matching shard-local → global document id map) per shard. Immutable and
/// freely shareable across threads; hold one for the duration of a logical
/// query (or batch) so every per-shard pass answers against the same
/// generation vector even while shard writers publish newer snapshots.
class ShardedSnapshot {
 public:
  struct ShardView {
    std::shared_ptr<const IndexSnapshot> snapshot;
    /// global_ids[j] is the global document id of the shard's document j.
    /// May be longer than the snapshot's document count (ids are recorded
    /// at enqueue time, before the writer folds); never shorter.
    std::shared_ptr<const std::vector<index_t>> global_ids;
    /// Which replica of the shard this view pinned (0 without replication).
    std::size_t replica = 0;
    /// The pinned replica's ReadGate: in-flight accounting plus its private
    /// read executor. Null (hand-built test views, R=1 fast path untouched
    /// by query_threads) means the shared scatter pool serves this shard.
    std::shared_ptr<ReadGate> gate;
  };

  /// Assembled by ShardedIndex::snapshot. Directly constructible too:
  /// `lsi_cli query` serves a saved database as a one-shard view, and the
  /// tie-break determinism tests build shard views by hand.
  explicit ShardedSnapshot(std::vector<ShardView> shards);

  std::size_t num_shards() const noexcept { return shards_.size(); }
  const ShardView& shard(std::size_t s) const { return shards_[s]; }
  /// Documents across all pinned shard snapshots.
  index_t num_docs() const noexcept;
  /// The pinned generation vector, one publish sequence number per shard —
  /// two queries against equal generation vectors see identical indexes.
  std::vector<std::uint64_t> generations() const;

  /// One fused hit: the representative plus the global ids of
  /// near-duplicates collapsed into it (empty without collapse).
  struct GatherHit {
    index_t doc = 0;      ///< global document id of the representative
    std::string label;    ///< read from the pinned shard row
    double score = 0.0;   ///< fusion score the global ranking sorts by
    double cosine = 0.0;  ///< raw per-shard cosine (== score by default)
    std::size_t shard = 0;
    std::vector<index_t> duplicates;
  };

  /// One query's gather output: the global top-z plus optional facet terms
  /// (query refinements from the top hits' semantic neighborhood).
  struct GatherResult {
    std::vector<GatherHit> hits;
    std::vector<gather::Facet> facets;
  };

  /// Batched scatter-gather retrieval over free-text queries (docs/GATHER.md):
  /// result[b] is query b's global top-z with GLOBAL document ids.
  ///
  ///   scatter  each shard parses/weights the texts against its own
  ///            vocabulary, projects the whole batch once and ranks it with
  ///            its BatchedRetriever — through that shard's cluster-pruned
  ///            structure when `opts.search` admits it (per-shard exact
  ///            fallbacks are independent);
  ///   fuse     the per-shard top-z lists merge under `opts.merge` into one
  ///            deterministic global ranking (the default raw-cosine policy
  ///            orders exactly like lsi/ranking.hpp's merge_rankings);
  ///   collapse near-duplicates fold into their best-ranked representative
  ///            when `opts.collapse_cosine` is in (0, 1];
  ///   facets   `opts.facets` facet terms are attached per query;
  ///   labels   every hit's label is read from its pinned shard row.
  ///
  /// Runs under the "sharding.scatter" / "sharding.gather" spans (plus
  /// "gather.fuse" / "gather.collapse" / "gather.facets"); `stats` (when
  /// non-null) accumulates the summed per-shard stage breakdown (seconds are
  /// CPU-seconds across shards, not wall time). Fails with the first
  /// SearchOptions::Validate() violation, or kDeadlineExceeded when
  /// `opts.deadline` has expired at entry or by the time a shard's scatter
  /// task starts (coarse-grained: a shard pass that began before expiry runs
  /// to completion; shards that had not started abandon the batch).
  Expected<std::vector<GatherResult>> try_gather_batch(
      const std::vector<std::string>& texts, const SearchOptions& opts = {},
      QueryStats* stats = nullptr) const;

  /// try_gather_batch projected to ScoredDoc{doc, score}, with collapse and
  /// facets cleared and no labels resolved. Under the default merge the
  /// score is the raw cosine, and with one shard the result is bit-identical
  /// to the monolithic BatchedRetriever.
  Expected<std::vector<std::vector<ScoredDoc>>> try_rank_batch(
      const std::vector<std::string>& texts, const SearchOptions& opts = {},
      QueryStats* stats = nullptr) const;

 private:
  /// The one read body behind both public methods: scatter, fuse, optional
  /// collapse, optional facets, then label resolution when `labels` is set.
  Expected<std::vector<GatherResult>> search(
      const std::vector<std::string>& texts, const SearchOptions& opts,
      QueryStats* stats, bool labels) const;

  /// The scatter stage: result[s][b] is shard s's top-z for query b in
  /// SHARD-LOCAL document indices. `shard_stats` (when non-null) must be
  /// pre-sized to num_shards(). A scatter task observing an expired
  /// `opts.deadline` before it starts sets `expired` and abandons its pass.
  /// `moments` (when non-null) is filled so moments[s][b] holds shard s's
  /// full-sweep ScoreMoments for query b — the background statistics the
  /// z-score merge policy standardizes against (requested only for non-raw
  /// policies; the raw path skips the extra passes entirely).
  std::vector<std::vector<std::vector<ScoredDoc>>> scatter(
      const std::vector<std::string>& texts, const SearchOptions& opts,
      std::vector<QueryStats>* shard_stats, std::atomic<bool>& expired,
      std::vector<std::vector<ScoreMoments>>* moments) const;

  std::vector<ShardView> shards_;
};

/// Partition, build, ingest and serve: the sharded face of the library.
/// Thread-safe throughout — add/try_add may be called from any thread, and
/// snapshot() hands out consistent read views concurrently with ingestion.
class ShardedIndex {
 public:
  /// Routes `docs` across opts.num_shards shards and builds every shard's
  /// index (shards build in parallel). Fails with the first
  /// ShardingOptions::Validate() violation, kInvalidArgument when a shard
  /// receives no documents (possible under hash-label routing on small
  /// collections), or whatever a shard's LsiIndex::try_build reports.
  /// Global document ids are the positions in `docs` (0-based), so routing
  /// never changes what a result's `doc` field means.
  static Expected<ShardedIndex> try_build(const text::Collection& docs,
                                          const ShardingOptions& opts);

  /// An empty index with no shards — exists only so Expected<ShardedIndex>
  /// can default-construct its error slot. Every member function requires a
  /// try_build result. (Special members are defined out of line: Shard is
  /// incomplete here.)
  ShardedIndex();

  ShardedIndex(ShardedIndex&&) noexcept;
  ShardedIndex& operator=(ShardedIndex&&) noexcept;
  ~ShardedIndex();

  /// Routes one document to its shard (assigning it the next global id) and
  /// enqueues it there, blocking while that shard's ingest queue is at
  /// capacity. kFailedPrecondition after shutdown().
  Status add(text::Document doc);

  /// Non-blocking variant: kResourceExhausted when the routed shard's queue
  /// is full — only that shard is saturated; a later retry re-routes under
  /// the same policy (hash-label lands on the same shard, round-robin moves
  /// on).
  Status try_add(text::Document doc);

  /// Blocks until every accepted document is folded into its shard and a
  /// snapshot containing it is published (all shards).
  void flush();

  /// Requests SVD-update consolidation on every shard and blocks until all
  /// are published. Fails with kFailedPrecondition after shutdown().
  Status consolidate();

  /// Stops ingestion, drains every shard and joins their writers.
  /// Idempotent; also run by the destructor.
  void shutdown();

  /// The current consistent read view: pins every shard's latest published
  /// snapshot (each a cheap pointer copy — readers never wait on writer
  /// work, per shard, exactly as in ConcurrentIndexer).
  ShardedSnapshot snapshot() const;

  /// Explicitly refcounted pin over the current read view, for holders that
  /// outlive the call frame (serving sessions, paging cursors). The handle
  /// keeps every per-shard IndexSnapshot alive — consolidations may retire
  /// and republish underneath it, but the pinned generation vector stays
  /// dereferenceable until the last copy of the handle is dropped, at which
  /// point the pin count decrements and the retired shard snapshots are
  /// freed. Release is the handle going out of scope; there is no unpin
  /// call to forget. Safe to hold across (and after) ShardedIndex
  /// destruction: the count outlives the index.
  std::shared_ptr<const ShardedSnapshot> pin_snapshot() const;

  /// Outstanding pin_snapshot handles not yet released (0 when every
  /// session has dropped its view — the drain-completion check the serving
  /// layer gates on).
  std::size_t pinned() const noexcept;

  std::size_t num_shards() const noexcept { return shards_.size(); }
  const ShardingOptions& options() const noexcept { return opts_; }
  /// Documents folded across all shards so far (per shard, the most
  /// caught-up replica's count).
  std::uint64_t ingested() const;

  // -- Replica administration (no-ops degenerate gracefully at R=1; see
  //    docs/REPLICATION.md for the eject/replay protocol) -----------------

  /// Replicas configured per shard.
  std::size_t replicas_per_shard() const noexcept { return opts_.replicas; }
  /// Healthy replicas of `shard` right now.
  std::size_t healthy_replicas(std::size_t shard) const;
  /// Removes one replica of `shard` from its feed (explicit kill/wedge).
  Status eject_replica(std::size_t shard, std::size_t replica);
  /// Replays the shard's ingest log into an ejected replica and rejoins it.
  Status readmit_replica(std::size_t shard, std::size_t replica);
  /// Runs every shard's replica health check; returns total ejections.
  std::size_t check_health();
  /// Per-replica rows for one shard (the /stats "replicas" arrays).
  std::vector<ReplicaSet::ReplicaInfo> replica_infos(std::size_t shard) const;

  /// Point-in-time per-shard statistics (the CLI's shard-stats table and the
  /// serving layer's /stats endpoint).
  struct ShardInfo {
    std::size_t shard = 0;
    std::size_t docs = 0;       ///< documents in the latest snapshot
    std::size_t terms = 0;      ///< shard vocabulary size
    index_t k = 0;              ///< shard factor count
    std::uint64_t generation = 0;
    std::size_t unconsolidated = 0;
    std::size_t queued = 0;
    std::uint64_t ingested = 0;
    std::uint64_t publishes = 0;
    std::uint64_t consolidations = 0;
    /// Cluster-pruned structure state of the shard's snapshot (lsi/ann.hpp).
    index_t ann_centroids = 0;          ///< 0 = no structure attached
    std::uint64_t ann_generation = 0;   ///< generation of its last from-scratch build
    bool ann_exact_fallback = true;     ///< queries sweep exactly (no AnnIndex)
    /// Replication state: which replica the view pinned, and how the
    /// shard's replica set looks right now.
    std::size_t replica = 0;            ///< replica serving the pinned view
    std::size_t replicas = 1;           ///< configured replicas (R)
    std::size_t healthy = 1;            ///< currently healthy replicas
  };

  /// Republishes the cross-shard term statistics from everything
  /// accumulated so far (the initial build pass plus every streamed add) and
  /// returns the new snapshot. Streamed documents keep their shard's frozen
  /// fold-in weighting — the republished statistics feed /stats visibility
  /// and FUTURE builds/consolidations, mirroring the paper's frozen-space
  /// fold-in semantics. Null when share_term_stats is off.
  std::shared_ptr<const gather::GlobalTermStats> refresh_term_stats();

  /// State of the term-statistics exchange (the /stats "gather" row).
  struct TermStatsInfo {
    bool enabled = false;
    std::uint64_t version = 0;  ///< publishes so far (0 = never)
    std::uint64_t docs = 0;     ///< documents covered by the snapshot
    std::size_t terms = 0;      ///< distinct terms in the snapshot
  };
  TermStatsInfo term_stats_info() const;

  /// Statistics computed against one consistent read view: every
  /// snapshot-derived field (docs, k, generation, ANN state) comes from the
  /// shard snapshots pinned in `view` — the single source of truth a serving
  /// layer must use so /stats and a session's pinned /session generations
  /// can never disagree about the same view. Counter fields (queued,
  /// ingested, publishes, consolidations) still read the live per-shard
  /// indexers. `view` must come from this index's snapshot()/pin_snapshot().
  std::vector<ShardInfo> shard_infos(const ShardedSnapshot& view) const;

  /// Convenience overload over the current snapshot() — equivalent to
  /// shard_infos(snapshot()).
  std::vector<ShardInfo> shard_infos() const;

 private:
  struct Shard;
  struct RouterState;
  struct PinCount;

  ShardedIndex(ShardingOptions opts, std::unique_ptr<RouterState> router,
               std::vector<std::unique_ptr<Shard>> shards);

  Status add_impl(text::Document doc, bool blocking);

  ShardingOptions opts_;
  std::unique_ptr<RouterState> router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Cross-shard term-statistics exchange; null when share_term_stats is
  /// off (the exchange then costs nothing on the ingest path).
  std::shared_ptr<gather::TermStatsExchange> exchange_;
  /// Shared (not owned) so a pin handle released after this index is gone
  /// still has a live count to decrement.
  std::shared_ptr<PinCount> pins_;
};

}  // namespace lsi::core
