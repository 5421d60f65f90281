#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace lsi::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (begin >= end) return;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t n = end - begin;
  const std::size_t workers = pool.thread_count();
  if (workers <= 1 || n <= grain) {
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const std::size_t step = (n + chunks - 1) / chunks;
  const std::size_t count = (n + step - 1) / step;

  // Per-call completion state: the caller waits for its own chunks only,
  // never for the whole pool, so concurrent callers do not convoy on each
  // other. Chunks are claimed from a shared cursor by pool helpers *and* by
  // the caller, so a call made from inside a pool task (or while every
  // worker is busy elsewhere) still finishes: whatever the helpers have not
  // claimed, the caller runs itself. A helper that starts after the last
  // chunk was claimed touches only this shared state, never `body`.
  struct Call {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
  };
  auto call = std::make_shared<Call>();
  auto run = [call, &body, begin, end, step, count] {
    for (std::size_t c; (c = call->next.fetch_add(1)) < count;) {
      const std::size_t lo = begin + c * step;
      body(lo, std::min(end, lo + step));
      std::lock_guard<std::mutex> lock(call->mu);
      if (++call->done == count) call->cv.notify_all();
    }
  };
  for (std::size_t h = 1; h < std::min(count, workers + 1); ++h) {
    pool.submit(run);
  }
  run();
  std::unique_lock<std::mutex> lock(call->mu);
  call->cv.wait(lock, [&] { return call->done == count; });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_chunks(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

}  // namespace lsi::util
