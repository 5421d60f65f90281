// util::RowBlocks: append-only storage in shared 512-row blocks. Copies
// share blocks and never see a later append; a handle behind the frontier
// (or truncated) forks instead of writing rows a copy can read.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "la/blocked_matrix.hpp"
#include "util/row_blocks.hpp"

namespace {

using lsi::util::kBlockRows;
using lsi::util::kBlockStride;
using lsi::util::RowBlocks;

/// Appends rows [from, to) with value (r, c) = r * 10 + c.
void fill(RowBlocks<double>& rb, std::size_t from, std::size_t to) {
  rb.append(to - from, [&](std::size_t i, std::size_t c) {
    return static_cast<double>((from + i) * 10 + c);
  });
}

void expect_rows(const RowBlocks<double>& rb, std::size_t n) {
  ASSERT_EQ(rb.rows(), n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < rb.width(); ++c) {
      ASSERT_EQ(rb(r, c), static_cast<double>(r * 10 + c)) << r << "," << c;
    }
  }
}

TEST(RowBlocks, AppendsAcrossBlockEdgesInColumnMajorBlocks) {
  RowBlocks<double> rb(3);
  fill(rb, 0, 700);
  fill(rb, 700, 1100);
  expect_rows(rb, 1100);
  EXPECT_EQ(rb.num_blocks(), 3u);
  EXPECT_EQ(rb.block_rows(0), kBlockRows);
  EXPECT_EQ(rb.block_rows(2), 1100 - 2 * kBlockRows);
  // Column c of block b is kBlockStride apart and cache-line aligned.
  EXPECT_EQ(rb.block(1)[2 * kBlockStride + 5], rb(kBlockRows + 5, 2));
  EXPECT_EQ(kBlockStride * sizeof(double) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rb.block(1)) % 64, 0u);
}

TEST(RowBlocks, CopiesShareBlocksAndNeverSeeLaterAppends) {
  RowBlocks<double> rb(2);
  fill(rb, 0, 600);
  const RowBlocks<double> pinned = rb;
  fill(rb, 600, 1300);
  expect_rows(pinned, 600);
  expect_rows(rb, 1300);
  EXPECT_TRUE(rb.shares_block(pinned, 0));
  // The partial block is shared too: the append wrote only rows past the
  // copy's count into it.
  EXPECT_TRUE(rb.shares_block(pinned, 1));
}

TEST(RowBlocks, HandleBehindTheFrontierForksItsPartialBlock) {
  RowBlocks<double> rb(2);
  fill(rb, 0, 600);
  RowBlocks<double> behind = rb;
  fill(rb, 600, 650);
  // `behind` appends different rows 600.. of its own: it must not write
  // into the rows rb already claimed.
  behind.append(10, [](std::size_t, std::size_t) { return -1.0; });
  expect_rows(rb, 650);
  EXPECT_EQ(behind.rows(), 610u);
  EXPECT_EQ(behind(605, 1), -1.0);
  EXPECT_TRUE(behind.shares_block(rb, 0));
  EXPECT_FALSE(behind.shares_block(rb, 1));
}

TEST(RowBlocks, TruncateThenAppendLeavesCopiesIntact) {
  RowBlocks<double> rb(1);
  fill(rb, 0, 520);
  const RowBlocks<double> pinned = rb;
  rb.truncate(515);
  rb.append(3, [](std::size_t, std::size_t) { return 7.0; });
  expect_rows(pinned, 520);
  EXPECT_EQ(rb.rows(), 518u);
  EXPECT_EQ(rb[516], 7.0);
  EXPECT_EQ(rb[514], 5140.0);
}

TEST(RowBlocks, StringsAndVectorsCompareElementwise) {
  const std::vector<std::string> labels = {"a", "b", "c"};
  auto rb = RowBlocks<std::string>::from_values(labels);
  EXPECT_EQ(rb, labels);
  EXPECT_EQ(rb.to_vector(), labels);
  EXPECT_EQ(rb.back(), "c");
  EXPECT_EQ(std::vector<std::string>(rb.begin() + 1, rb.end()),
            std::vector<std::string>({"b", "c"}));
}

TEST(RowBlocks, ConcurrentReadersOfACopyWhileTheWriterAppends) {
  // The writer appends at the frontier while readers scan copies taken
  // earlier: under ThreadSanitizer any write to a row a copy can read is a
  // reported race.
  RowBlocks<double> rb(4);
  fill(rb, 0, 500);
  const RowBlocks<double> pinned = rb;
  std::thread writer([&] {
    for (std::size_t n = 500; n < 3000; n += 25) fill(rb, n, n + 25);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int pass = 0; pass < 20; ++pass) expect_rows(pinned, 500);
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  expect_rows(rb, 3000);
}

TEST(RowBlocks, BlockedMatrixRoundTripsDense) {
  lsi::la::DenseMatrix m(1030, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 1030; ++i) m(i, j) = i * 3.0 + j;
  }
  const lsi::la::BlockedMatrix b = m;
  EXPECT_EQ(b.rows(), 1030u);
  EXPECT_EQ(b.cols(), 3u);
  EXPECT_EQ(lsi::la::max_abs_diff(b.to_dense(), m), 0.0);
  EXPECT_EQ(b.row(1029), m.row(1029));
  EXPECT_EQ(b.col(2), std::vector<double>(m.col(2).begin(), m.col(2).end()));
}

}  // namespace
