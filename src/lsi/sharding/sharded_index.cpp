#include "lsi/sharding/sharded_index.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "lsi/gather/dedup.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace lsi::core {

namespace {

/// The pool shard fan-out (scatter tasks, parallel shard builds) runs on.
/// Deliberately NOT util::ThreadPool::global(): the per-shard work itself
/// calls parallel_for over the global pool. Keeping the fan-out on a
/// separate pool leaves every global-pool worker free for those chunks:
/// scatter workers run their shard's share, global-pool workers help.
util::ThreadPool& scatter_pool() {
  static util::ThreadPool pool;  // hardware concurrency
  return pool;
}

/// Runs task(0..n) and blocks until every call returns. Completion is
/// tracked per call (not via ThreadPool::wait_idle, which waits for *global*
/// pool idleness and could starve under concurrent queries from other
/// threads). `gates[i]`, when present and non-null, is task i's replica
/// ReadGate: its private executor (that replica's serving capacity, so read
/// throughput scales with healthy replicas) runs the task, and its in-flight
/// gauge — the least-loaded read policy's signal — is held from dispatch
/// until the task finishes. Gateless tasks share the scatter pool.
void fan_out(std::size_t n, const std::function<void(std::size_t)>& task,
             const std::vector<ReadGate*>& gates = {}) {
  const auto gate = [&](std::size_t i) {
    return i < gates.size() ? gates[i] : nullptr;
  };
  const bool private_pools =
      std::any_of(gates.begin(), gates.end(),
                  [](const ReadGate* g) { return g && g->pool; });
  // A single task, or a single-threaded pool, cannot overlap anything with
  // the caller, so the dispatch/latch round-trip would be pure overhead.
  const bool run_inline =
      !private_pools && (n == 1 || scatter_pool().thread_count() <= 1);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = n;
  for (std::size_t i = 0; i < n; ++i) {
    ReadGate* g = gate(i);
    if (g) g->in_flight.fetch_add(1, std::memory_order_relaxed);
    const auto run = [&task, i, g] {
      task(i);
      if (g) g->in_flight.fetch_sub(1, std::memory_order_relaxed);
    };
    if (run_inline) {
      run();
      continue;
    }
    util::ThreadPool& pool = g && g->pool ? *g->pool : scatter_pool();
    pool.submit([&, run] {
      run();
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  if (run_inline) return;
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
}

/// Accumulates one shard's per-stage stats into the batch aggregate. Times
/// sum to CPU-seconds across shards (shards overlap in wall time).
void accumulate_stats(QueryStats& into, const QueryStats& shard) {
  into.docs_scored += shard.docs_scored;
  into.project_seconds += shard.project_seconds;
  into.score_seconds += shard.score_seconds;
  into.select_seconds += shard.select_seconds;
  into.total_seconds += shard.total_seconds;
  into.flops += shard.flops;
  into.ann_pruned_queries += shard.ann_pruned_queries;
  into.ann_centroids_probed += shard.ann_centroids_probed;
  into.ann_docs_scanned += shard.ann_docs_scanned;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardingOptions
// ---------------------------------------------------------------------------

Status ShardingOptions::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (min_shard_k < 1) {
    return Status::InvalidArgument("min_shard_k must be at least 1");
  }
  if (split_k_budget &&
      static_cast<std::size_t>(index.k) < num_shards) {
    return Status::InvalidArgument(
        "k budget " + std::to_string(index.k) + " cannot be split across " +
        std::to_string(num_shards) + " shards (fewer than one factor each)");
  }
  if (Status s = ReplicaOptions::Validate(); !s.ok()) return s;
  return index.Validate();
}

index_t ShardingOptions::shard_k(std::size_t shard) const {
  if (!split_k_budget) return index.k;
  const index_t n = static_cast<index_t>(num_shards);
  const index_t base = index.k / n;
  const index_t extra = static_cast<index_t>(shard) < index.k % n ? 1 : 0;
  return std::max(min_shard_k, base + extra);
}

// ---------------------------------------------------------------------------
// ShardedSnapshot
// ---------------------------------------------------------------------------

ShardedSnapshot::ShardedSnapshot(std::vector<ShardView> shards)
    : shards_(std::move(shards)) {
  for ([[maybe_unused]] const ShardView& s : shards_) {
    assert(s.snapshot != nullptr);
    assert(s.global_ids != nullptr);
    assert(s.global_ids->size() >=
           static_cast<std::size_t>(s.snapshot->space().num_docs()));
  }
}

index_t ShardedSnapshot::num_docs() const noexcept {
  index_t total = 0;
  for (const ShardView& s : shards_) total += s.snapshot->space().num_docs();
  return total;
}

std::vector<std::uint64_t> ShardedSnapshot::generations() const {
  std::vector<std::uint64_t> gens;
  gens.reserve(shards_.size());
  for (const ShardView& s : shards_) gens.push_back(s.snapshot->generation());
  return gens;
}

std::vector<std::vector<std::vector<ScoredDoc>>> ShardedSnapshot::scatter(
    const std::vector<std::string>& texts, const SearchOptions& opts,
    std::vector<QueryStats>* shard_stats, std::atomic<bool>& expired,
    std::vector<std::vector<ScoreMoments>>* moments) const {
  // Scatter: every shard handles the whole batch against its own space —
  // through its own cluster-pruned structure when the snapshot carries one
  // and opts.search admits it. Per-shard results stay in shard-local
  // document indices until the gather; each worker writes only its own
  // slot, so no synchronization beyond the fan_out join is needed.
  const std::size_t bsz = texts.size();
  std::vector<std::vector<std::vector<ScoredDoc>>> per_shard(shards_.size());
  if (moments) moments->assign(shards_.size(), {});
  std::vector<ReadGate*> gates;
  gates.reserve(shards_.size());
  for (const ShardView& sv : shards_) gates.push_back(sv.gate.get());
  LSI_OBS_SPAN(span, "sharding.scatter");
  fan_out(shards_.size(), [&](std::size_t s) {
    // Per-shard deadline check: a scatter task that has not started by
    // expiry abandons the batch instead of scoring it.
    if (opts.deadline_expired()) {
      expired.store(true, std::memory_order_relaxed);
      return;
    }
    LSI_OBS_SPAN(shard_span, "sharding.shard_rank");
    const IndexSnapshot& snap = *shards_[s].snapshot;
    std::vector<la::SparseVector> terms;
    terms.reserve(bsz);
    for (const std::string& text : texts) {
      terms.push_back(snap.context().weighted_terms(text));
    }
    QueryStats* qs = shard_stats ? &(*shard_stats)[s] : nullptr;
    const QueryBatch batch = QueryBatch::from_sparse(snap.space(), terms, qs);
    per_shard[s] = BatchedRetriever(snap.space_ptr(), snap.ann())
                       .rank(batch, opts, qs,
                             moments ? &(*moments)[s] : nullptr);
  }, gates);
  return per_shard;
}

Expected<std::vector<ShardedSnapshot::GatherResult>> ShardedSnapshot::search(
    const std::vector<std::string>& texts, const SearchOptions& opts,
    QueryStats* stats, bool labels) const {
  if (Status s = opts.Validate(); !s.ok()) return s;
  if (opts.deadline_expired()) {
    return Status::DeadlineExceeded(
        "search deadline expired before the scatter began");
  }
  const std::size_t bsz = texts.size();
  const std::size_t n_shards = shards_.size();
  std::vector<GatherResult> results(bsz);
  if (bsz == 0 || n_shards == 0) return results;

  std::vector<QueryStats> shard_stats(n_shards);
  const bool raw_policy = opts.merge == gather::MergePolicy::kRawCosine;
  std::vector<std::vector<ScoreMoments>> shard_moments;
  std::atomic<bool> expired{false};
  const auto per_shard =
      scatter(texts, opts, stats ? &shard_stats : nullptr, expired,
              raw_policy ? nullptr : &shard_moments);
  if (expired.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded(
        "search deadline expired during the shard scatter");
  }

  const bool collapse =
      opts.collapse_cosine > 0.0 && opts.collapse_cosine <= 1.0;
  LSI_OBS_SPAN(span, "sharding.gather");
  for (std::size_t b = 0; b < bsz; ++b) {
    // Map shard-local indices to global ids for the fusion. Each fused hit
    // keeps its position in its shard list, so the shard-local row (for
    // dedup reconstruction, facets and labels) is one index away.
    std::vector<gather::ShardList> lists(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::vector<index_t>& ids = *shards_[s].global_ids;
      const std::vector<ScoredDoc>& ranked = per_shard[s][b];
      lists[s].docs.reserve(ranked.size());
      lists[s].cosines.reserve(ranked.size());
      for (const ScoredDoc& sd : ranked) {
        lists[s].docs.push_back(ids[sd.doc]);
        lists[s].cosines.push_back(sd.cosine);
      }
      if (!raw_policy) {
        // Full-sweep background moments: the z-score standardizes each
        // shard's list against everything the shard scored, not just the
        // top-z it returned (fusion.hpp).
        const ScoreMoments& m = shard_moments[s][b];
        lists[s].bg_count = m.count;
        lists[s].bg_mean = m.mean;
        lists[s].bg_stdev = m.stdev;
      }
    }
    const auto local_row = [&](const gather::FusedHit& h) {
      return per_shard[h.shard][b][h.rank].doc;
    };

    std::vector<gather::FusedHit> fused;
    {
      LSI_OBS_SPAN(fuse_span, "gather.fuse");
      // Collapse needs the full candidate pool: a duplicate ranked below
      // position z must still be able to fold into a top-z representative.
      fused = gather::fuse(lists, opts.fusion_options(),
                           collapse ? 0 : opts.z);
    }

    std::vector<gather::CollapsedHit> collapsed;
    if (collapse) {
      std::vector<gather::ProfileCache::Profile> profiles(fused.size());
      {
        LSI_OBS_SPAN(profile_span, "gather.profile");
        // One batch per shard: its hits are read from the snapshot's profile
        // cache and the misses reconstructed together.
        std::vector<std::vector<std::size_t>> at(n_shards);
        for (std::size_t i = 0; i < fused.size(); ++i) {
          at[fused[i].shard].push_back(i);
        }
        std::vector<index_t> rows;
        for (std::size_t s = 0; s < n_shards; ++s) {
          if (at[s].empty()) continue;
          rows.clear();
          for (std::size_t i : at[s]) rows.push_back(local_row(fused[i]));
          const IndexSnapshot& snap = *shards_[s].snapshot;
          const SemanticSpace& sp = snap.space();
          auto got = gather::term_profiles(snap.profile_cache(), sp.u,
                                           sp.sigma, sp.v, rows,
                                           snap.context().vocabulary());
          for (std::size_t j = 0; j < got.size(); ++j) {
            profiles[at[s][j]] = std::move(got[j]);
          }
        }
      }
      LSI_OBS_SPAN(collapse_span, "gather.collapse");
      std::vector<const gather::SparseTermVector*> views;
      views.reserve(profiles.size());
      for (const auto& p : profiles) views.push_back(p.get());
      collapsed = gather::collapse_near_duplicates(fused, views,
                                                   opts.collapse_cosine);
      if (opts.z > 0 && collapsed.size() > opts.z) collapsed.resize(opts.z);
    }
    // Without collapse every fused hit is its own representative.
    const std::size_t n_hits = collapse ? collapsed.size() : fused.size();
    const auto rep = [&](std::size_t i) -> const gather::FusedHit& {
      return collapse ? collapsed[i].rep : fused[i];
    };

    GatherResult& result = results[b];
    if (opts.facets > 0 && n_hits > 0) {
      LSI_OBS_SPAN(facet_span, "gather.facets");
      std::vector<std::vector<index_t>> rows_by_shard(n_shards);
      for (std::size_t i = 0; i < n_hits; ++i) {
        rows_by_shard[rep(i).shard].push_back(local_row(rep(i)));
      }
      std::vector<std::vector<gather::Facet>> shard_lists;
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (rows_by_shard[s].empty()) continue;
        const IndexSnapshot& snap = *shards_[s].snapshot;
        const SemanticSpace& sp = snap.space();
        shard_lists.push_back(gather::shard_facets(
            sp.u, sp.sigma, sp.v, snap.context().vocabulary(),
            rows_by_shard[s], opts.facets, sp.term_norms()));
      }
      result.facets = gather::merge_facets(shard_lists, opts.facets);
    }

    result.hits.resize(n_hits);
    for (std::size_t i = 0; i < n_hits; ++i) {
      const gather::FusedHit& h = rep(i);
      GatherHit& hit = result.hits[i];
      hit.doc = h.doc;
      if (labels) {
        hit.label = shards_[h.shard].snapshot->doc_labels()[local_row(h)];
      }
      hit.score = h.score;
      hit.cosine = h.cosine;
      hit.shard = h.shard;
      if (collapse) hit.duplicates = std::move(collapsed[i].duplicates);
    }
  }

  if (stats) {
    stats->batch_size += static_cast<index_t>(bsz);
    for (const QueryStats& qs : shard_stats) accumulate_stats(*stats, qs);
  }
  obs::count("sharding.batches");
  obs::count("sharding.queries", bsz);
  return results;
}

Expected<std::vector<ShardedSnapshot::GatherResult>>
ShardedSnapshot::try_gather_batch(const std::vector<std::string>& texts,
                                  const SearchOptions& opts,
                                  QueryStats* stats) const {
  return search(texts, opts, stats, /*labels=*/true);
}

Expected<std::vector<std::vector<ScoredDoc>>> ShardedSnapshot::try_rank_batch(
    const std::vector<std::string>& texts, const SearchOptions& opts,
    QueryStats* stats) const {
  SearchOptions ranked = opts;
  ranked.collapse_cosine = -1.0;
  ranked.facets = 0;
  auto gathered = search(texts, ranked, stats, /*labels=*/false);
  if (!gathered.ok()) return gathered.status();
  std::vector<std::vector<ScoredDoc>> out(gathered->size());
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b].reserve((*gathered)[b].hits.size());
    for (const GatherHit& hit : (*gathered)[b].hits) {
      out[b].push_back(ScoredDoc{hit.doc, hit.score});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ShardedIndex
// ---------------------------------------------------------------------------

/// One shard: a ReplicaSet (R ConcurrentIndexer replicas behind one ingest
/// log — a plain single writer at R=1) plus the copy-on-write shard-local →
/// global id map. `add_mu` orders (id append, feed) pairs so the map always
/// lists ids in the shard's fold order — the ReplicaSet's log gives every
/// replica that same order; `ids_mu` guards only the map pointer (snapshot
/// readers copy it without touching add_mu).
struct ShardedIndex::Shard {
  Shard(LsiIndex index, const ReplicaOptions& ropts,
        std::vector<index_t> initial_ids)
      : ids(std::make_shared<const std::vector<index_t>>(
            std::move(initial_ids))),
        replicas(std::move(index), ropts) {}

  std::shared_ptr<const std::vector<index_t>> ids_snapshot() const {
    std::lock_guard<std::mutex> lock(ids_mu);
    return ids;
  }

  /// Appends `gid` (copy-on-write); returns the previous map so a failed
  /// enqueue can roll back. Caller must hold add_mu.
  std::shared_ptr<const std::vector<index_t>> append_id(index_t gid) {
    auto next = std::make_shared<std::vector<index_t>>();
    std::shared_ptr<const std::vector<index_t>> prev;
    {
      std::lock_guard<std::mutex> lock(ids_mu);
      prev = ids;
    }
    next->reserve(prev->size() + 1);
    *next = *prev;
    next->push_back(gid);
    {
      std::lock_guard<std::mutex> lock(ids_mu);
      ids = std::move(next);
    }
    return prev;
  }

  void restore_ids(std::shared_ptr<const std::vector<index_t>> prev) {
    std::lock_guard<std::mutex> lock(ids_mu);
    ids = std::move(prev);
  }

  mutable std::mutex ids_mu;
  std::shared_ptr<const std::vector<index_t>> ids;
  std::mutex add_mu;
  ReplicaSet replicas;  ///< declared last: joins before ids dies
};

/// Routing decisions and global id assignment, serialized under one mutex so
/// a single-threaded producer gets a fully deterministic assignment.
struct ShardedIndex::RouterState {
  RouterState(RoutingPolicy policy, std::size_t num_shards, index_t next_gid)
      : router(policy, num_shards), next_global_id(next_gid) {}

  index_t allocate_id() {
    std::lock_guard<std::mutex> lock(mu);
    if (!free_ids.empty()) {
      const index_t id = free_ids.back();
      free_ids.pop_back();
      return id;
    }
    return next_global_id++;
  }

  /// Returns a reserved id after a failed enqueue so ids stay dense: every
  /// rejected attempt is followed by a retry (or nothing at all), and
  /// allocation prefers freed ids, so the ids actually ingested always form
  /// a contiguous [0, n) — no holes burned by backpressure.
  void release_id(index_t id) {
    std::lock_guard<std::mutex> lock(mu);
    free_ids.push_back(id);
  }

  std::mutex mu;
  ShardRouter router;
  index_t next_global_id;
  std::vector<index_t> free_ids;
};

Expected<ShardedIndex> ShardedIndex::try_build(const text::Collection& docs,
                                               const ShardingOptions& opts) {
  if (Status s = opts.Validate(); !s.ok()) return s;
  if (docs.empty()) {
    return Status::InvalidArgument("cannot build from an empty collection");
  }
  if (docs.size() < opts.num_shards) {
    return Status::InvalidArgument(
        "collection of " + std::to_string(docs.size()) +
        " documents cannot fill " + std::to_string(opts.num_shards) +
        " shards");
  }

  LSI_OBS_SPAN(span, "sharding.build");

  // Partition: global id of a document is its position in `docs`.
  auto router = std::make_unique<RouterState>(
      opts.routing, opts.num_shards, static_cast<index_t>(docs.size()));
  std::vector<text::Collection> shard_docs(opts.num_shards);
  std::vector<std::vector<index_t>> shard_ids(opts.num_shards);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const std::size_t s =
        router->router.route(docs[d].label, docs[d].body.size());
    shard_docs[s].push_back(docs[d]);
    shard_ids[s].push_back(static_cast<index_t>(d));
  }
  for (std::size_t s = 0; s < opts.num_shards; ++s) {
    if (shard_docs[s].empty()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " received no documents under " +
          std::string(routing_policy_name(opts.routing)) +
          " routing; use fewer shards");
    }
  }

  // Term-statistics exchange (share_term_stats): a statistics pass BEFORE
  // any shard weights its slice. Each shard parses its documents, reduces
  // them to mergeable sufficient statistics {df, gf, sum tf log2 tf,
  // sum tf^2}, and the merged, versioned snapshot hands every shard the
  // same collection-wide Equation-5 global weights. Costs one extra parse
  // per shard at build time; per-shard statistics (the default) skip it.
  std::shared_ptr<gather::TermStatsExchange> exchange;
  std::shared_ptr<const gather::GlobalTermStats> shared_stats;
  if (opts.share_term_stats) {
    LSI_OBS_SPAN(stats_span, "gather.term_stats");
    exchange = std::make_shared<gather::TermStatsExchange>(opts.num_shards);
    fan_out(opts.num_shards, [&](std::size_t s) {
      const text::TermDocumentMatrix tdm =
          text::build_term_document_matrix(shard_docs[s], opts.index.parser);
      gather::TermStatsPartial partial;
      partial.add_counts(tdm.counts, tdm.vocabulary);
      exchange->accumulate(s, partial);
    });
    shared_stats = exchange->publish();
  }

  // Build every shard's index in parallel (each build's numerical kernels
  // additionally parallel_for over the global pool).
  std::vector<std::optional<Expected<LsiIndex>>> built(opts.num_shards);
  fan_out(opts.num_shards, [&](std::size_t s) {
    IndexOptions shard_opts = opts.index;
    shard_opts.k = opts.shard_k(s);
    shard_opts.shared_stats = shared_stats;
    built[s].emplace(LsiIndex::try_build(shard_docs[s], shard_opts));
  });
  for (std::size_t s = 0; s < opts.num_shards; ++s) {
    if (!built[s]->ok()) {
      const Status& st = built[s]->status();
      return Status(st.code(),
                    "shard " + std::to_string(s) + ": " + st.message());
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(opts.num_shards);
  for (std::size_t s = 0; s < opts.num_shards; ++s) {
    ReplicaOptions ropts = opts;
    // Failpoint instance tags are "s<shard>.r<replica>" — chaos tests wedge
    // one replica of one shard without touching its siblings.
    ropts.concurrent.failpoint_tag = "s" + std::to_string(s);
    shards.push_back(std::make_unique<Shard>(std::move(built[s]->value()),
                                             ropts, std::move(shard_ids[s])));
  }
  ShardedIndex index(opts, std::move(router), std::move(shards));
  index.exchange_ = std::move(exchange);
  obs::gauge("sharding.shards", static_cast<double>(opts.num_shards));
  const auto& assigned = index.router_->router.assigned();
  obs::gauge("sharding.docs_per_shard_min",
             static_cast<double>(
                 *std::min_element(assigned.begin(), assigned.end())));
  obs::gauge("sharding.docs_per_shard_max",
             static_cast<double>(
                 *std::max_element(assigned.begin(), assigned.end())));
  return index;
}

/// Outstanding pin_snapshot handles. Heap-allocated and co-owned by every
/// handle so a release after the index is destroyed decrements live memory.
struct ShardedIndex::PinCount {
  std::atomic<std::size_t> count{0};
};

ShardedIndex::ShardedIndex(ShardingOptions opts,
                           std::unique_ptr<RouterState> router,
                           std::vector<std::unique_ptr<Shard>> shards)
    : opts_(std::move(opts)),
      router_(std::move(router)),
      shards_(std::move(shards)),
      pins_(std::make_shared<PinCount>()) {}

ShardedIndex::ShardedIndex() : pins_(std::make_shared<PinCount>()) {}
ShardedIndex::ShardedIndex(ShardedIndex&&) noexcept = default;
ShardedIndex& ShardedIndex::operator=(ShardedIndex&&) noexcept = default;

ShardedIndex::~ShardedIndex() {
  if (!shards_.empty()) shutdown();
}

Status ShardedIndex::add(text::Document doc) {
  return add_impl(std::move(doc), /*blocking=*/true);
}

Status ShardedIndex::try_add(text::Document doc) {
  return add_impl(std::move(doc), /*blocking=*/false);
}

Status ShardedIndex::add_impl(text::Document doc, bool blocking) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(router_->mu);
    target = router_->router.route(doc.label, doc.body.size());
  }
  // Tokenize for the exchange before the body is moved into the queue (only
  // when the exchange is live — the default ingest path pays nothing).
  std::map<std::string, double> term_counts;
  if (exchange_) {
    term_counts = text::document_term_counts(doc.body, opts_.index.parser);
  }
  const index_t gid = router_->allocate_id();
  Shard& shard = *shards_[target];
  // add_mu makes (append id, enqueue) atomic with respect to other
  // producers targeting this shard, so the id map's order always matches
  // the queue's FIFO fold order. Blocking adds hold it through the
  // backpressure wait — producers to a saturated shard serialize, producers
  // to other shards are unaffected (independent per-shard backpressure).
  std::lock_guard<std::mutex> lock(shard.add_mu);
  auto prev = shard.append_id(gid);
  Status status = blocking ? shard.replicas.add(std::move(doc))
                           : shard.replicas.try_add(std::move(doc));
  if (!status.ok()) {
    shard.restore_ids(std::move(prev));
    router_->release_id(gid);
    obs::count("sharding.ingest_rejected");
  } else if (exchange_) {
    // Accumulated but not republished: already-built shards keep their
    // frozen fold-in weighting (the paper's Section 2.3 semantics); the
    // merged statistics become visible at the next refresh_term_stats().
    exchange_->accumulate_document(target, term_counts);
  }
  return status;
}

void ShardedIndex::flush() {
  for (auto& shard : shards_) shard->replicas.flush();
}

Status ShardedIndex::consolidate() {
  for (auto& shard : shards_) {
    if (Status s = shard->replicas.consolidate(); !s.ok()) return s;
  }
  return Status::Ok();
}

void ShardedIndex::shutdown() {
  for (auto& shard : shards_) shard->replicas.shutdown();
}

ShardedSnapshot ShardedIndex::snapshot() const {
  std::vector<ShardedSnapshot::ShardView> views;
  views.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardedSnapshot::ShardView view;
    // Order matters: pin the index snapshot FIRST. Ids are appended before
    // their document is fed, so any id map read afterwards covers every
    // document the pinned snapshot can contain. pick_reader chooses one
    // healthy replica per the configured read policy; the whole query (or
    // session) then sticks to that replica's snapshot.
    ReplicaSet::ReadRef ref = shard->replicas.pick_reader();
    view.snapshot = std::move(ref.snapshot);
    view.replica = ref.replica;
    view.gate = std::move(ref.gate);
    view.global_ids = shard->ids_snapshot();
    views.push_back(std::move(view));
  }
  return ShardedSnapshot(std::move(views));
}

std::shared_ptr<const ShardedSnapshot> ShardedIndex::pin_snapshot() const {
  std::shared_ptr<PinCount> pins = pins_;
  pins->count.fetch_add(1, std::memory_order_relaxed);
  obs::count("sharding.snapshot_pins");
  // The deleter co-owns the count, so releasing a pin after the index is
  // destroyed is well-defined (the count block outlives the index).
  return std::shared_ptr<const ShardedSnapshot>(
      new ShardedSnapshot(snapshot()), [pins](const ShardedSnapshot* view) {
        delete view;
        pins->count.fetch_sub(1, std::memory_order_relaxed);
      });
}

std::size_t ShardedIndex::pinned() const noexcept {
  return pins_->count.load(std::memory_order_relaxed);
}

std::uint64_t ShardedIndex::ingested() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->replicas.ingested();
  return total;
}

std::size_t ShardedIndex::healthy_replicas(std::size_t shard) const {
  return shards_[shard]->replicas.healthy_count();
}

Status ShardedIndex::eject_replica(std::size_t shard, std::size_t replica) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index " + std::to_string(shard) +
                                   " out of range (shards=" +
                                   std::to_string(shards_.size()) + ")");
  }
  return shards_[shard]->replicas.eject(replica);
}

Status ShardedIndex::readmit_replica(std::size_t shard, std::size_t replica) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index " + std::to_string(shard) +
                                   " out of range (shards=" +
                                   std::to_string(shards_.size()) + ")");
  }
  return shards_[shard]->replicas.readmit(replica);
}

std::size_t ShardedIndex::check_health() {
  std::size_t ejected = 0;
  for (auto& shard : shards_) ejected += shard->replicas.check_health();
  return ejected;
}

std::vector<ReplicaSet::ReplicaInfo> ShardedIndex::replica_infos(
    std::size_t shard) const {
  return shards_[shard]->replicas.replica_infos();
}

std::shared_ptr<const gather::GlobalTermStats>
ShardedIndex::refresh_term_stats() {
  if (!exchange_) return nullptr;
  return exchange_->publish();
}

ShardedIndex::TermStatsInfo ShardedIndex::term_stats_info() const {
  TermStatsInfo info;
  if (!exchange_) return info;
  info.enabled = true;
  if (auto stats = exchange_->current()) {
    info.version = stats->version();
    info.docs = stats->docs();
    info.terms = stats->num_terms();
  }
  return info;
}

std::vector<ShardedIndex::ShardInfo> ShardedIndex::shard_infos(
    const ShardedSnapshot& view) const {
  std::vector<ShardInfo> infos;
  const std::size_t n = std::min(view.num_shards(), shards_.size());
  infos.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto& shard = *shards_[s];
    // Snapshot-derived fields come from the caller's pinned view — the same
    // IndexSnapshot pointers a session's queries run against — so a /stats
    // row and the /session generations can never disagree about one view.
    const IndexSnapshot& snap = *view.shard(s).snapshot;
    ShardInfo info;
    info.shard = s;
    info.docs = static_cast<std::size_t>(snap.space().num_docs());
    info.terms = snap.context().vocabulary().size();
    info.k = snap.space().k();
    info.generation = snap.generation();
    info.unconsolidated = snap.unconsolidated();
    // Counter fields read the replica the view pinned (clamped for
    // hand-built views), so a /stats row describes the replica actually
    // serving that view's queries.
    const std::size_t r =
        std::min(view.shard(s).replica, shard.replicas.num_replicas() - 1);
    const ConcurrentIndexer& indexer = shard.replicas.replica(r);
    info.queued = indexer.queued();
    info.ingested = indexer.ingested();
    info.publishes = indexer.publishes();
    info.consolidations = indexer.consolidations();
    info.replica = r;
    info.replicas = shard.replicas.num_replicas();
    info.healthy = shard.replicas.healthy_count();
    if (const auto& ann = snap.ann()) {
      info.ann_centroids = ann->num_centroids();
      info.ann_generation = ann->build_generation();
      info.ann_exact_fallback = false;
    }
    infos.push_back(info);
  }
  return infos;
}

std::vector<ShardedIndex::ShardInfo> ShardedIndex::shard_infos() const {
  return shard_infos(snapshot());
}

}  // namespace lsi::core
