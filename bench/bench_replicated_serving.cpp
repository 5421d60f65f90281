// Replicated serving: read throughput vs replicas-per-shard, and failover
// cost under a mid-run replica kill (docs/REPLICATION.md).
//
// The same collection is built twice — 2 shards x 1 replica and 2 shards x
// 3 replicas, each replica with a single-threaded private read executor
// (ReplicaOptions::query_threads = 1) — and hammered by the same read-heavy
// client mix (8 threads of batched scatter-gather queries over a trickle of
// fold-ins). With R = 1 every client contends on the two per-shard
// executors; with R = 3 the round-robin reader policy spreads pinned views
// across six, so throughput must scale with healthy replica count: the full
// -mode gate requires >= 1.6x q/s from R = 1 to R = 3.
//
// Replication adds serving capacity, not per-query efficiency, so the
// scaling gate is meaningful only where the capacity can land: it runs
// when the host has at least as many cores as R = 3 read executors (6).
// On smaller hosts the ratio is still measured and reported, and a bound
// replaces the gate: extra replicas may cost coordination overhead but
// must never collapse read throughput (R = 3 >= 0.5x R = 1). The failover
// gate below is unconditional everywhere.
//
// The failover phase runs on the quiesced R = 3 index: expected rankings
// are precomputed once, then clients stream queries while one replica of
// every shard is ejected mid-run and later readmitted. Killing a replica
// may cost throughput, never correctness — every ranking produced before,
// during and after the fault must be byte-identical to the expected one
// (doc order and cosine bits), and no query may fail. Any mismatch fails
// the bench in both quick and full mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "lsi/lsi.hpp"
#include "obs/trace.hpp"
#include "synth/corpus.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

// Same serving-cost regime as bench_sharded_retrieval: n >> m, no synonymy,
// dominant-form queries — per-query time is dominated by the per-shard
// score pass the replica executors parallelize.
synth::SyntheticCorpus bench_corpus(bool quick) {
  synth::CorpusSpec spec;
  spec.topics = quick ? 16 : 72;
  spec.concepts_per_topic = 3;
  spec.forms_per_concept = 1;
  spec.shared_concepts = 10;
  spec.docs_per_topic = quick ? 8 : 10;  // 128 docs quick, 720 full
  spec.mean_doc_len = 50.0;
  spec.general_prob = 0.15;
  spec.polysemy_prob = 0.0;
  spec.queries_per_topic = quick ? 2 : 1;
  spec.query_len = 3;
  spec.query_offform_prob = 0.0;
  spec.seed = 20817;
  return synth::generate_corpus(spec);
}

core::ShardedIndex build_index(const text::Collection& docs,
                               std::size_t replicas, bool quick) {
  core::ShardingOptions sopts;
  sopts.num_shards = 2;
  sopts.index.k = quick ? 16 : 48;
  sopts.replicas = replicas;
  sopts.query_threads = 1;  // one private read executor per replica
  sopts.concurrent.queue_capacity = 256;
  auto built = core::ShardedIndex::try_build(docs, sopts);
  if (!built.ok()) {
    std::cerr << "build (R=" << replicas
              << ") failed: " << built.status().to_string() << "\n";
    std::exit(1);
  }
  return std::move(*built);
}

struct PhaseResult {
  double qps = 0.0;
  std::uint64_t queries = 0;
};

/// The read-heavy mix: `threads` clients each running `iters` batched
/// scatter passes (fresh pinned view per pass, so the reader policy picks a
/// replica every time), over a trickle of `ingest` fold-ins from one writer.
PhaseResult run_phase(core::ShardedIndex& index,
                      const std::vector<std::vector<std::string>>& batches,
                      std::size_t threads, std::size_t iters,
                      const text::Collection& ingest) {
  core::SearchOptions qopts;
  qopts.z = 10;
  std::atomic<std::uint64_t> queries{0};
  std::atomic<bool> stop_writer{false};

  util::WallTimer timer;
  std::thread writer([&] {
    for (const auto& doc : ingest) {
      if (stop_writer.load(std::memory_order_relaxed)) break;
      if (!index.add(doc).ok()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < iters; ++i) {
        const auto& block = batches[(t + i) % batches.size()];
        const core::ShardedSnapshot snap = index.snapshot();
        const auto ranked = snap.try_rank_batch(block, qopts).value();
        if (ranked.size() != block.size()) {
          std::cerr << "short batch result\n";
          std::exit(1);
        }
        queries.fetch_add(block.size(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();
  const double wall = timer.seconds();
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();
  index.flush();

  PhaseResult out;
  out.queries = queries.load();
  out.qps = static_cast<double>(out.queries) / wall;
  return out;
}

bool bit_identical(const std::vector<core::ScoredDoc>& a,
                   const std::vector<core::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].cosine != b[i].cosine) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::banner("replicated shard serving with failover",
                "Read q/s at R=1 vs R=3 (per-replica executors), and "
                "byte-stability of rankings across a mid-run replica kill");

  const bool quick = bench::quick_mode();
  bench::StatsSession stats("replicated_serving", /*install=*/false);

  const auto corpus = bench_corpus(quick);
  // Head builds the index; the tail is the concurrent fold-in trickle.
  const std::size_t head = corpus.docs.size() - (quick ? 16 : 64);
  const text::Collection base_docs(corpus.docs.begin(),
                                   corpus.docs.begin() + head);
  const text::Collection tail_docs(corpus.docs.begin() + head,
                                   corpus.docs.end());

  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);
  const std::size_t kBatch = 4;
  std::vector<std::vector<std::string>> batches;
  for (std::size_t lo = 0; lo < texts.size(); lo += kBatch) {
    batches.emplace_back(texts.begin() + lo,
                         texts.begin() + std::min(texts.size(), lo + kBatch));
  }

  const std::size_t kClients = quick ? 4 : 8;
  const std::size_t kIters = quick ? 24 : 120;
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // R = 3 runs six single-threaded read executors; the scaling gate needs
  // at least that many cores to have capacity worth measuring.
  const bool scaling_gated = cores >= 6;
  stats.param("cores", static_cast<double>(cores));
  stats.param("scaling_gated", scaling_gated ? 1.0 : 0.0);
  stats.param("n_docs", static_cast<double>(base_docs.size()));
  stats.param("ingest_docs", static_cast<double>(tail_docs.size()));
  stats.param("clients", static_cast<double>(kClients));
  stats.param("iters_per_client", static_cast<double>(kIters));
  stats.param("quick", quick ? 1.0 : 0.0);

  util::TextTable table(
      {"replicas", "read execs", "queries", "q/s", "speedup"});

  // --- Phase A/B: R = 1 vs R = 3 under the identical read-heavy mix -------
  double qps_r1 = 0.0, qps_r3 = 0.0;
  core::ShardedIndex index_r3 = build_index(base_docs, 3, quick);
  {
    core::ShardedIndex index_r1 = build_index(base_docs, 1, quick);
    const PhaseResult a = run_phase(index_r1, batches, kClients, kIters,
                                    tail_docs);
    qps_r1 = a.qps;
    table.add_row({"1", "2", util::fmt_int(static_cast<long long>(a.queries)),
                   util::fmt(a.qps, 0), "1.00"});
    index_r1.shutdown();
  }
  const PhaseResult b =
      run_phase(index_r3, batches, kClients, kIters, tail_docs);
  qps_r3 = b.qps;
  const double speedup = qps_r1 > 0.0 ? qps_r3 / qps_r1 : 0.0;
  table.add_row({"3", "6", util::fmt_int(static_cast<long long>(b.queries)),
                 util::fmt(b.qps, 0), util::fmt(speedup, 2)});
  table.print(std::cout,
              "Read-heavy mix (" + std::to_string(kClients) + " clients, " +
                  std::to_string(tail_docs.size()) +
                  " trickled fold-ins) on 2 shards");
  stats.param("qps_r1", qps_r1);
  stats.param("qps_r3", qps_r3);
  stats.param("speedup_r3_vs_r1", speedup);

  // --- Phase C: kill one replica per shard mid-run -------------------------
  // Quiesced index: every replica of a shard answers byte-identically, so a
  // single precomputed expectation covers every possible pinned view.
  core::SearchOptions qopts;
  qopts.z = 10;
  std::vector<std::vector<core::ScoredDoc>> expected;
  {
    const core::ShardedSnapshot snap = index_r3.snapshot();
    auto ranked = snap.try_rank_batch(texts, qopts).value();
    expected = std::move(ranked);
  }

  const std::size_t kFailoverIters = quick ? 48 : 240;
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> mismatches{0};
  util::WallTimer timer;
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kFailoverIters; ++i) {
        const std::size_t q = (t * kFailoverIters + i) % texts.size();
        const core::ShardedSnapshot snap = index_r3.snapshot();
        const auto ranked = snap.try_rank_batch({texts[q]}, qopts).value();
        if (ranked.size() != 1 || !bit_identical(ranked[0], expected[q])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(kClients) * kFailoverIters;
  auto wait_done = [&](std::uint64_t n) {
    while (done.load(std::memory_order_relaxed) < n) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  // One third in: kill one replica of every shard. Two thirds in: readmit
  // (replays an empty tail — the index is quiesced — and rejoins).
  wait_done(total / 3);
  {
    obs::ScopedSink scoped(&stats.sink());  // capture replica.* counters
    for (std::size_t s = 0; s < index_r3.num_shards(); ++s) {
      const Status st = index_r3.eject_replica(s, 1);
      if (!st.ok()) {
        std::cerr << "eject failed: " << st.to_string() << "\n";
        return 1;
      }
    }
  }
  wait_done(2 * total / 3);
  {
    obs::ScopedSink scoped(&stats.sink());
    for (std::size_t s = 0; s < index_r3.num_shards(); ++s) {
      const Status st = index_r3.readmit_replica(s, 1);
      if (!st.ok()) {
        std::cerr << "readmit failed: " << st.to_string() << "\n";
        return 1;
      }
    }
  }
  for (auto& c : clients) c.join();
  const double failover_wall = timer.seconds();
  const double failover_qps = static_cast<double>(total) / failover_wall;

  std::cout << "\nFailover phase: " << total << " queries across "
            << "eject + readmit of one replica per shard, "
            << util::fmt(failover_qps, 0) << " q/s, "
            << mismatches.load() << " ranking mismatches\n";
  stats.param("failover_queries", static_cast<double>(total));
  stats.param("failover_qps", failover_qps);
  stats.param("failover_mismatches",
              static_cast<double>(mismatches.load()));
  index_r3.shutdown();

  // --- Gates ---------------------------------------------------------------
  bool failed = false;
  if (mismatches.load() != 0) {
    std::cerr << "\nFAIL: " << mismatches.load()
              << " rankings diverged from the precomputed expectation "
                 "across the replica kill (must be byte-identical)\n";
    failed = true;
  }
  if (!quick && scaling_gated && speedup < 1.6) {
    std::cerr << "\nFAIL: expected >= 1.6x q/s from R=1 to R=3 on the "
                 "read-heavy mix, got "
              << util::fmt(speedup, 2) << "x\n";
    failed = true;
  }
  if (!quick && !scaling_gated && speedup < 0.5) {
    std::cerr << "\nFAIL: R=3 collapsed read throughput to "
              << util::fmt(speedup, 2)
              << "x of R=1 (replication overhead bound is 0.5x)\n";
    failed = true;
  }
  if (failed) return 1;
  if (!quick) {
    if (scaling_gated) {
      std::cout << "\nGates: R=3 q/s = " << util::fmt(speedup, 2)
                << "x R=1 (>= 1.6x required); failover mismatches = 0.\n";
    } else {
      std::cout << "\nGates: scaling gate skipped (" << cores
                << " core(s) < 6 read executors); R=3 q/s = "
                << util::fmt(speedup, 2)
                << "x R=1 (>= 0.5x overhead bound); failover mismatches = "
                   "0.\n";
    }
  }
  return 0;
}
