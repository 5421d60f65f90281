// Edge-case coverage for the parallel loop helpers the batched retrieval
// engine leans on: empty ranges, grains larger than the range, ragged
// partitions, and exactly-once visitation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace {

using lsi::util::parallel_for;
using lsi::util::parallel_for_chunks;
using lsi::util::ThreadPool;
using namespace std::chrono_literals;

TEST(ParallelForChunks, EmptyRangeNeverCallsBody) {
  bool called = false;
  parallel_for_chunks(7, 7, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  parallel_for_chunks(0, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunks, GrainLargerThanRangeIsOneChunk) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(
      0, 5,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      /*grain=*/100);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0u);
  EXPECT_EQ(chunks[0].second, 5u);
}

TEST(ParallelForChunks, RaggedRangeCoversEveryIndexExactlyOnce) {
  // 1031 is prime, so no grain divides it evenly: the last chunk is ragged
  // and must still be delivered.
  const std::size_t n = 1031;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_chunks(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        ASSERT_LE(hi, n);
        for (std::size_t i = lo; i < hi; ++i) visits[i]++;
      },
      /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ParallelForChunks, NonZeroBeginRespected) {
  std::vector<std::atomic<int>> visits(20);
  parallel_for_chunks(
      13, 20,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) visits[i]++;
      },
      /*grain=*/2);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(visits[i].load(), i >= 13 ? 1 : 0) << i;
  }
}

TEST(ParallelFor, GrainLargerThanRangeStillVisitsAll) {
  std::vector<std::atomic<int>> visits(5);
  parallel_for(
      0, 5, [&](std::size_t i) { visits[i]++; }, /*grain=*/1000);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, SingleElementRange) {
  int count = 0;
  parallel_for(41, 42, [&](std::size_t i) {
    EXPECT_EQ(i, 41u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelForChunks, WaitsOnlyForItsOwnChunks) {
  if (ThreadPool::global().thread_count() <= 1) {
    GTEST_SKIP() << "a single-worker pool runs every call inline";
  }
  // The first caller's chunks all park on a latch, occupying every pool
  // worker; the second caller must still finish, because it waits for its
  // own chunks only and runs unclaimed ones itself.
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<std::size_t> parked{0};
  auto blocked = std::async(std::launch::async, [&] {
    parallel_for_chunks(
        0, 1 << 16,
        [&](std::size_t, std::size_t) {
          ++parked;
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return released; });
        },
        /*grain=*/1);
  });
  while (parked.load() == 0) std::this_thread::sleep_for(1ms);

  std::atomic<std::size_t> visited{0};
  auto second = std::async(std::launch::async, [&] {
    parallel_for_chunks(
        0, 4096,
        [&](std::size_t lo, std::size_t hi) { visited += hi - lo; },
        /*grain=*/64);
  });
  const bool finished = second.wait_for(10s) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  blocked.get();
  ASSERT_TRUE(finished) << "second caller waited on the first one's chunks";
  second.get();
  EXPECT_EQ(visited.load(), 4096u);
}

TEST(ParallelForChunks, CallFromInsideAGlobalPoolTaskReturns) {
  std::promise<std::size_t> result;
  auto future = result.get_future();
  ThreadPool::global().submit([&] {
    std::atomic<std::size_t> visited{0};
    parallel_for_chunks(
        0, 4096,
        [&](std::size_t lo, std::size_t hi) { visited += hi - lo; },
        /*grain=*/64);
    result.set_value(visited.load());
  });
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready)
      << "a nested call waited for its own enclosing task";
  EXPECT_EQ(future.get(), 4096u);
}

}  // namespace
