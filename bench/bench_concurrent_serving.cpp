// Serving under concurrent ingestion (the Section 5.6 "real-time updating"
// scenario as a systems measurement): reader threads run queries against
// atomically-published snapshots while writer threads stream documents into
// a ConcurrentIndexer that folds, periodically consolidates via SVD-update,
// and republishes. Reports query throughput and tail latency alongside the
// writer-side ingest/consolidate/publish span histograms, and proves that
// queries complete *during* active consolidation (readers never block on
// the writer).
//
// A second table prices one fold-in publish against the shard size n: the
// writer's CPU per publish of p = 4 documents at k = 32, over spaces of
// n = 10k and 100k documents (and 1M in full mode) built without the SVD
// (random orthonormal U and V; folding-in needs only U, sigma and the
// vocabulary). Snapshots share what a fold-in did not change, so the cost
// should stay flat in n. It is reported, not gated: it is a wall-clock-era
// CPU figure on a shared host.
//
// Emits BENCH_concurrent_serving.json ("lsi.stats.v1"): the serving.query
// span carries the p50/p95/p99 query latency, concurrent.* spans the writer
// stages, and the params section the throughput/overlap numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "la/qr.hpp"
#include "lsi/concurrent.hpp"
#include "synth/corpus.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

constexpr std::size_t kReaders = 4;
constexpr std::size_t kWriters = 2;

/// Random matrix with orthonormal columns.
la::DenseMatrix random_orthonormal(core::index_t rows, core::index_t cols,
                                   util::Rng& rng) {
  la::DenseMatrix a(rows, cols);
  for (core::index_t j = 0; j < cols; ++j) {
    for (auto& x : a.col(j)) x = rng.normal();
  }
  return la::orthonormal_columns(a);
}

struct PublishCost {
  std::size_t publishes = 0;
  double docs_per_publish = 0.0;
  double cpu_us_per_publish = 0.0;
};

/// Writer CPU per fold-in publish of `p` documents into an n-document space
/// of k factors. The vocabulary, parser and weighting come from a small
/// built index over `corpus`; its space is then replaced by random
/// orthonormal U (m x k) and V (n x k) with a decreasing sigma. The caller
/// blocks in flush() after every p documents, so the process CPU time spent
/// meanwhile is the writer's.
PublishCost publish_cost(const synth::SyntheticCorpus& corpus,
                         core::index_t n, core::index_t k, std::size_t p,
                         std::size_t rounds) {
  core::IndexOptions iopts;
  iopts.k = k;
  auto index = core::LsiIndex::try_build(corpus.docs, iopts).value();
  util::Rng rng(n);
  core::SemanticSpace& space = index.mutable_space();
  space.u = random_orthonormal(space.num_terms(), k, rng);
  space.v = random_orthonormal(n, k, rng);
  std::vector<double> sigma(k);
  for (core::index_t i = 0; i < k; ++i) sigma[i] = 100.0 / (1.0 + i);
  space.sigma = std::move(sigma);
  space.invalidate_doc_norms();
  index.mutable_labels().resize(n, "base");

  core::ConcurrentOptions copts;
  copts.consolidate_every = 0;  // fold-in publishes only
  copts.max_batch = p;
  core::ConcurrentIndexer indexer(std::move(index), copts);
  const std::uint64_t publishes0 = indexer.publishes();
  const std::clock_t cpu0 = std::clock();
  std::size_t next = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t d = 0; d < p; ++d) {
      (void)indexer.add(corpus.docs[next++ % corpus.docs.size()]);
    }
    indexer.flush();
  }
  const double cpu_s =
      static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  PublishCost cost;
  cost.publishes = indexer.publishes() - publishes0;
  cost.docs_per_publish = static_cast<double>(rounds * p) /
                          static_cast<double>(std::max<std::size_t>(
                              cost.publishes, 1));
  cost.cpu_us_per_publish =
      cpu_s * 1e6 / static_cast<double>(std::max<std::size_t>(
                        cost.publishes, 1));
  return cost;
}

}  // namespace

int main() {
  bench::banner("serve-while-updating (Section 5.6)",
                "Query throughput and tail latency while writer threads "
                "fold in documents and consolidate via SVD-update");

  const bool quick = bench::quick_mode();
  bench::StatsSession stats("concurrent_serving", /*install=*/true);

  synth::CorpusSpec spec;
  spec.topics = 6;
  spec.concepts_per_topic = 8;
  spec.docs_per_topic = quick ? 30 : 120;
  spec.queries_per_topic = 4;
  spec.seed = 7;
  const auto corpus = synth::generate_corpus(spec);
  const std::size_t train = corpus.docs.size() / 3;
  const std::size_t stream = corpus.docs.size() - train;

  core::IndexOptions iopts;
  iopts.k = quick ? 32 : 48;
  text::Collection head(corpus.docs.begin(), corpus.docs.begin() + train);
  core::ConcurrentOptions copts;
  copts.queue_capacity = 32;
  // Manual consolidation policy: a maintenance thread consolidates on a
  // timer, so the SVD-update chews a sizable pending batch each time (long
  // enough a window that reader overlap is observable even on one CPU).
  copts.consolidate_every = 0;
  copts.max_batch = 8;
  core::ConcurrentIndexer indexer(
      core::LsiIndex::try_build(head, iopts).value(), copts);

  std::cout << "corpus: " << corpus.docs.size() << " docs (" << train
            << " base + " << stream << " streamed), k = " << iopts.k << ", "
            << kWriters << " writers, " << kReaders << " readers\n\n";

  // --- phase 1: serve while ingesting ------------------------------------
  std::atomic<bool> ingest_done{false};
  std::atomic<std::size_t> queries_total{0};
  std::atomic<std::size_t> queries_ok{0};
  std::atomic<std::size_t> during_consolidation{0};

  util::WallTimer wall;
  std::vector<std::thread> writers;
  const std::size_t per_writer = stream / kWriters;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::size_t begin = train + w * per_writer;
      const std::size_t end =
          (w + 1 == kWriters) ? corpus.docs.size() : begin + per_writer;
      for (std::size_t d = begin; d < end; ++d) {
        if (!indexer.add(corpus.docs[d]).ok()) return;
      }
    });
  }

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t q = r;
      // Keep serving until ingestion finishes, then a short tail so late
      // consolidations are also measured under load.
      while (!ingest_done.load(std::memory_order_acquire)) {
        const bool overlapped_start = indexer.consolidating();
        auto snap = indexer.snapshot();
        std::vector<core::QueryResult> hits;
        {
          LSI_OBS_SPAN(span, "serving.query");
          hits = snap->query(corpus.queries[q % corpus.queries.size()].text);
        }
        queries_total.fetch_add(1, std::memory_order_relaxed);
        if (!hits.empty()) queries_ok.fetch_add(1, std::memory_order_relaxed);
        if (overlapped_start && indexer.consolidating()) {
          // This query ran start-to-finish inside a consolidation window:
          // direct evidence reads do not block on the SVD-update.
          during_consolidation.fetch_add(1, std::memory_order_relaxed);
        }
        q += kReaders;
      }
    });
  }

  std::thread maintenance([&] {
    while (!ingest_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (!indexer.consolidate().ok()) return;
    }
  });

  for (auto& t : writers) t.join();
  indexer.flush();
  ingest_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  maintenance.join();
  const double serve_seconds = wall.seconds();

  // --- phase 2: guarantee the overlap was observed ------------------------
  // Timeslicing may or may not have landed a query inside a consolidation
  // window above; force the overlap deterministically: run consolidations in
  // a background thread while the main thread queries until one completes
  // with the flag up at both ends.
  std::size_t forced_rounds = 0;
  while (during_consolidation.load() == 0 && forced_rounds < 16) {
    ++forced_rounds;
    // Re-dirty the decomposition with a large pending batch: the SVD-update
    // then takes several scheduler quanta, so even on a single CPU a reader
    // timeslice lands inside the consolidation window (the writer is
    // preempted mid-update with the flag up).
    for (std::size_t d = 0; d < 256; ++d) {
      text::Document doc = corpus.docs[d % corpus.docs.size()];
      doc.label += "#r" + std::to_string(forced_rounds) + "-" +
                   std::to_string(d);
      if (!indexer.add(std::move(doc)).ok()) break;
    }
    std::atomic<bool> round_done{false};
    std::thread consolidator([&] {
      (void)indexer.consolidate();
      round_done.store(true, std::memory_order_release);
    });
    auto snap = indexer.snapshot();
    while (!round_done.load(std::memory_order_acquire)) {
      const bool overlapped_start = indexer.consolidating();
      std::vector<core::QueryResult> hits;
      {
        LSI_OBS_SPAN(span, "serving.query");
        hits = snap->query(corpus.queries[0].text);
      }
      queries_total.fetch_add(1, std::memory_order_relaxed);
      if (!hits.empty()) queries_ok.fetch_add(1, std::memory_order_relaxed);
      if (overlapped_start && indexer.consolidating()) {
        during_consolidation.fetch_add(1, std::memory_order_relaxed);
      }
    }
    consolidator.join();
  }

  const double qps = static_cast<double>(queries_total.load()) / serve_seconds;
  const double ingest_rate = static_cast<double>(stream) / serve_seconds;

  // Pull the query-latency percentiles out of the serving.query span.
  double p50 = 0.0, p99 = 0.0;
  for (const auto& span : stats.sink().spans()) {
    if (span.name == "serving.query") {
      p50 = span.latency.quantile(0.50);
      p99 = span.latency.quantile(0.99);
    }
  }

  util::TextTable table({"metric", "value"});
  table.add_row({"serve window (s)", util::fmt(serve_seconds, 3)});
  table.add_row({"queries served", util::fmt_int(static_cast<long long>(
                                       queries_total.load()))});
  table.add_row({"queries/sec", util::fmt(qps, 0)});
  table.add_row({"query p50 (ms)", util::fmt(p50 * 1e3, 3)});
  table.add_row({"query p99 (ms)", util::fmt(p99 * 1e3, 3)});
  table.add_row({"docs ingested/sec", util::fmt(ingest_rate, 1)});
  table.add_row({"snapshots published", util::fmt_int(static_cast<long long>(
                                            indexer.publishes()))});
  table.add_row({"consolidations", util::fmt_int(static_cast<long long>(
                                       indexer.consolidations()))});
  table.add_row({"queries during consolidation",
                 util::fmt_int(static_cast<long long>(
                     during_consolidation.load()))});
  table.print(std::cout, "Concurrent serving (" + std::to_string(kWriters) +
                             " writers + " + std::to_string(kReaders) +
                             " readers)");

  stats.param("writers", static_cast<double>(kWriters));
  stats.param("readers", static_cast<double>(kReaders));
  stats.param("k", static_cast<double>(iopts.k));
  stats.param("docs_base", static_cast<double>(train));
  stats.param("docs_ingested", static_cast<double>(indexer.ingested()));
  stats.param("publishes", static_cast<double>(indexer.publishes()));
  stats.param("consolidations", static_cast<double>(indexer.consolidations()));
  stats.param("queries_total", static_cast<double>(queries_total.load()));
  stats.param("queries_ok", static_cast<double>(queries_ok.load()));
  stats.param("qps", qps);
  stats.param("query_p50_s", p50);
  stats.param("query_p99_s", p99);
  stats.param("ingest_docs_per_s", ingest_rate);
  stats.param("queries_during_consolidation",
              static_cast<double>(during_consolidation.load()));
  stats.param("quick", quick ? 1.0 : 0.0);

  // --- publish cost against n (reported, not gated) ----------------------
  {
    std::vector<core::index_t> sizes = {10000, 100000};
    if (!quick) sizes.push_back(1000000);
    constexpr core::index_t kPublishK = 32;
    constexpr std::size_t kPublishDocs = 4;
    util::TextTable cost_table(
        {"n", "publishes", "docs/publish", "writer CPU us/publish"});
    for (const core::index_t n : sizes) {
      const PublishCost cost =
          publish_cost(corpus, n, kPublishK, kPublishDocs, quick ? 100 : 300);
      cost_table.add_row(
          {util::fmt_int(static_cast<long long>(n)),
           util::fmt_int(static_cast<long long>(cost.publishes)),
           util::fmt(cost.docs_per_publish, 2),
           util::fmt(cost.cpu_us_per_publish, 1)});
      stats.param("publish_cpu_us_n" + std::to_string(n),
                  cost.cpu_us_per_publish);
    }
    std::cout << "\n";
    cost_table.print(std::cout, "Fold-in publish cost against n (p = " +
                                    std::to_string(kPublishDocs) +
                                    ", k = " + std::to_string(kPublishK) +
                                    ")");
  }

  if (queries_ok.load() == 0) {
    std::cerr << "\nFAIL: no query returned results\n";
    return 1;
  }
  if (during_consolidation.load() == 0) {
    std::cerr << "\nFAIL: no query overlapped an active consolidation — "
                 "readers appear to block on the writer\n";
    return 1;
  }
  std::cout << "\n" << during_consolidation.load()
            << " queries completed inside active consolidation windows: "
               "reads never block on the SVD-update.\n";
  return 0;
}
