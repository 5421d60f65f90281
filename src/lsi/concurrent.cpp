#include "lsi/concurrent.hpp"

#include <algorithm>
#include <utility>

#include "lsi/batched_retrieval.hpp"
#include "lsi/retrieval.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace lsi::core {

// ---------------------------------------------------------------------------
// IndexSnapshot
// ---------------------------------------------------------------------------

std::vector<QueryResult> IndexSnapshot::query(std::string_view text,
                                              const SearchOptions& opts,
                                              QueryStats* stats) const {
  const QueryBatch one =
      QueryBatch::from_sparse(*space_, {ctx_->weighted_terms(text)}, stats);
  auto ranked = BatchedRetriever(space_, ann_).rank(one, opts, stats);
  std::vector<QueryResult> out;
  for (const ScoredDoc& sd : ranked.front()) {
    out.push_back({labels_[sd.doc], sd.doc, sd.cosine});
  }
  return out;
}

std::vector<ScoredDoc> IndexSnapshot::retrieve(const la::Vector& term_vector,
                                               const SearchOptions& opts,
                                               QueryStats* stats) const {
  // Batch-size-1 pass through the batched engine with this snapshot's ANN
  // structure attached; in exact mode this is the same single code path
  // core::retrieve wraps, so results are unchanged by the redesign.
  const QueryBatch one =
      QueryBatch::from_term_vectors(*space_, {term_vector}, stats);
  auto ranked = BatchedRetriever(space_, ann_).rank(one, opts, stats);
  return std::move(ranked.front());
}

// ---------------------------------------------------------------------------
// ConcurrentIndexer
// ---------------------------------------------------------------------------

// The consolidation *policy* lives in ConcurrentIndexer (it brackets the
// SVD-update with the consolidating_ flag and its own counters), so the
// wrapped IncrementalIndexer runs in manual mode.
ConcurrentIndexer::ConcurrentIndexer(LsiIndex index,
                                     const ConcurrentOptions& opts)
    : opts_(opts),
      master_(std::move(index),
              IncrementalOptions{.consolidate_every = 0,
                                 .exact_update = opts.exact_update}),
      queue_(opts.queue_capacity) {
  // Generation 1: the base index is servable before the first add().
  publish();
}

ConcurrentIndexer::~ConcurrentIndexer() { shutdown(); }

Status ConcurrentIndexer::add(text::Document doc) {
  switch (queue_.push(std::move(doc))) {
    case util::QueuePush::kOk:
      schedule_writer();
      return Status::Ok();
    case util::QueuePush::kClosed:
      return Status::FailedPrecondition("ConcurrentIndexer is shut down");
    case util::QueuePush::kFull:
      break;  // push() blocks instead of reporting kFull
  }
  return Status::Internal("BoundedQueue::push returned kFull");
}

Status ConcurrentIndexer::try_add(text::Document doc) {
  switch (queue_.try_push(std::move(doc))) {
    case util::QueuePush::kOk:
      schedule_writer();
      return Status::Ok();
    case util::QueuePush::kClosed:
      return Status::FailedPrecondition("ConcurrentIndexer is shut down");
    case util::QueuePush::kFull:
      obs::count("concurrent.ingest_rejected");
      return Status::ResourceExhausted(
          "ingest queue full (capacity " +
          std::to_string(queue_.capacity()) + ")");
  }
  return Status::Internal("unreachable");
}

void ConcurrentIndexer::flush() {
  schedule_writer();
  wait_idle();
}

Status ConcurrentIndexer::consolidate() {
  if (queue_.closed()) {
    return Status::FailedPrecondition("ConcurrentIndexer is shut down");
  }
  force_consolidate_.store(true, std::memory_order_release);
  schedule_writer();
  wait_idle();
  return Status::Ok();
}

void ConcurrentIndexer::shutdown() {
  queue_.close();  // blocked producers wake with kClosed
  // Drain everything accepted before the close; accepted != dropped.
  schedule_writer();
  wait_idle();
}

void ConcurrentIndexer::schedule_writer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_active_) return;
  writer_active_ = true;
  writer_.submit([this] { writer_drain(); });
}

void ConcurrentIndexer::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return !writer_active_ && queue_.empty(); });
}

void ConcurrentIndexer::writer_drain() {
  std::vector<text::Document> batch;
  for (;;) {
    batch.clear();
    queue_.pop_batch(batch, opts_.max_batch);
    if (!batch.empty()) {
      ingest_batch(batch);
      continue;
    }
    if (force_consolidate_.exchange(false, std::memory_order_acq_rel)) {
      if (master_.pending() > 0) {
        consolidate_now();
        publish();
      }
      continue;  // re-check the queue before going idle
    }
    std::unique_lock<std::mutex> lock(mu_);
    // Producers enqueue *then* check writer_active_ under mu_, so either
    // they see us active (and we see their document here) or they schedule
    // a fresh drain after we go idle — no missed wakeups.
    if (!queue_.empty() ||
        force_consolidate_.load(std::memory_order_acquire)) {
      continue;
    }
    writer_active_ = false;
    lock.unlock();
    cv_idle_.notify_all();
    return;
  }
}

void ConcurrentIndexer::ingest_batch(std::span<const text::Document> batch) {
  bool unpublished = false;
  {
    LSI_OBS_SPAN(span, "concurrent.ingest");
    while (!batch.empty()) {
      // Fold each run up to the next consolidation boundary with one call
      // (Equation 7 over the whole run: one V append, one norm extension).
      std::size_t run = batch.size();
      if (opts_.consolidate_every > 0) {
        run = std::min(run, opts_.consolidate_every - master_.pending());
      }
      for (std::size_t d = 0; d < run; ++d) {
        (void)LSI_FAILPOINT("concurrent.fold", opts_.failpoint_tag);
      }
      master_.add(batch.first(run));
      ingested_.fetch_add(run, std::memory_order_relaxed);
      batch = batch.subspan(run);
      unpublished = true;
      if (opts_.consolidate_every > 0 &&
          master_.pending() >= opts_.consolidate_every) {
        consolidate_now();
        // Publish right here, not at the batch boundary: the ANN rotation
        // or rebuild (and the consolidated basis) then lands at a
        // doc-count-determined point, so replicas fed the same document
        // sequence carry identical structures no matter how their batches
        // happened to be chopped.
        publish();
        unpublished = false;
      }
    }
  }
  if (unpublished) publish();
}

void ConcurrentIndexer::consolidate_now() {
  (void)LSI_FAILPOINT("concurrent.consolidate", opts_.failpoint_tag);
  consolidating_.store(true, std::memory_order_release);
  // The documents consolidated before this update; the pending fold-ins
  // after them get new coordinates.
  const index_t kept = master_.index().space().num_docs() - master_.pending();
  la::DenseMatrix map;
  {
    LSI_OBS_SPAN(span, "concurrent.consolidate");
    map = master_.consolidate();
  }
  consolidations_.fetch_add(1, std::memory_order_relaxed);
  consolidating_.store(false, std::memory_order_release);
  // The update moved every old document's sigma-scaled row x to x map: the
  // publish that follows every consolidation carries the cluster partition
  // across by that map, and the term profiles over the old basis are
  // meaningless now.
  rotation_ = Rotation{std::move(map), kept};
}

void ConcurrentIndexer::publish() {
  (void)LSI_FAILPOINT("concurrent.publish", opts_.failpoint_tag);
  LSI_OBS_SPAN(span, "concurrent.publish");
  // Share-on-publish: the writer's master space stays private and mutable,
  // readers get a copy that shares every byte it holds. U, sigma and the
  // term norms are immutable values behind shared pointers, replaced only
  // by a consolidation; V and the doc-norm caches are append-only blocks
  // whose rows a copy can see are never written again (util/row_blocks.hpp).
  // Copying the space is therefore O(1), and what a fold-in publish costs is
  // the fold-in's own O(p k) append. The master is warmed first, so the
  // copy inherits full caches: a full fill happens only on the first publish
  // after the build or a consolidation, and between those, fold-ins extend
  // the master's caches in O(p k) (extend_doc_norms).
  const SemanticSpace& master_space = master_.index().space();
  master_space.prewarm_doc_norms();
  auto space = std::make_shared<const SemanticSpace>(master_space);
  // Labels follow V's blocks: append only the ones folded since.
  const auto& labels = master_.index().doc_labels();
  const std::size_t have = master_labels_.rows();
  master_labels_.append(labels.size() - have, [&](std::size_t i, std::size_t) {
    return labels[have + i];
  });
  const std::uint64_t generation =
      publishes_.fetch_add(1, std::memory_order_relaxed) + 1;
  // ANN maintenance mirrors the norm caches: fold-ins only append V rows, so
  // the existing partition is extended over the new tail; a consolidation
  // moved the old rows by rotation_->map, so the partition is rotated by it
  // (AnnIndex::rotate rebuilds from scratch by its own fixed rules).
  // AnnIndex::build returns null below the exact-scan cutoff — queries then
  // fall back to the exact sweep until the corpus grows past it.
  if (opts_.ann.enabled) {
    if (master_ann_ == nullptr) {
      master_ann_ = AnnIndex::build(*space, opts_.ann, generation);
    } else if (rotation_) {
      master_ann_ = master_ann_->rotate(*space, rotation_->map,
                                        rotation_->kept, generation);
    } else if (master_ann_->num_docs() <
               static_cast<index_t>(space->num_docs())) {
      master_ann_ = master_ann_->extend(*space);
    }
  } else {
    master_ann_ = nullptr;
  }
  // A term profile depends only on U, sigma and its V row, which fold-ins
  // leave alone: the cache lives until the next consolidation, so it holds
  // at most one profile per row of one consolidation generation.
  if (master_profiles_ == nullptr || rotation_) {
    master_profiles_ = std::make_shared<gather::ProfileCache>();
  }
  rotation_.reset();
  auto snap = std::make_shared<const IndexSnapshot>(
      std::move(space), master_labels_, master_.index().context_ptr(),
      generation, master_.pending(), IndexSnapshot::clock::now(), master_ann_,
      master_profiles_);
  std::shared_ptr<const IndexSnapshot> old;
  {
    // The mutex covers only this swap; the retired snapshot (and anything
    // only it kept alive) is released after the lock is dropped.
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    old = std::move(snapshot_);
    snapshot_ = std::move(snap);
  }
  if (old) {
    // Age of the snapshot being retired = how stale reads were allowed to
    // get; a production SLO watches this gauge.
    obs::gauge("concurrent.snapshot_age_seconds", old->age_seconds());
  }
  obs::count("concurrent.publishes");
  obs::gauge("concurrent.pending_docs", static_cast<double>(queue_.size()));
  obs::gauge("concurrent.unconsolidated_docs",
             static_cast<double>(master_.pending()));
}

}  // namespace lsi::core
