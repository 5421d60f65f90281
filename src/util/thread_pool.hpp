#pragma once
// A small work-stealing-free thread pool plus a blocking parallel_for.
//
// All numerical kernels in src/la route data-parallel loops through
// parallel_for so they scale with cores while remaining deterministic: the
// loop body must only write to disjoint per-index state, which every caller
// in this library observes (row/column partitions).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lsi::util {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Process-wide pool, created on first use with hardware concurrency.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [begin, end), partitioned into contiguous chunks
/// across the global pool. Falls back to a serial loop for small ranges or a
/// single-threaded pool. Blocks until all iterations complete — its own
/// iterations only: other callers' work in the pool is never waited on, and
/// the calling thread runs unclaimed chunks itself, so a call from inside a
/// global-pool task returns too.
///
/// `grain` is the minimum number of iterations worth shipping to a worker;
/// tune it so each chunk amortizes the dispatch cost.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1024);

/// Chunked variant: body(lo, hi) receives whole subranges, which lets the
/// caller hoist per-chunk state (accumulators, scratch) out of the inner loop.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t grain = 1024);

}  // namespace lsi::util
