// Unit tests for the utility substrate: RNG determinism and distributions,
// thread-pool correctness, string helpers, and table formatting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using lsi::util::Rng;

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMomentsReasonable) {
  Rng r(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng r(17);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += r.poisson(3.5);
  EXPECT_NEAR(total / n, 3.5, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng r(23);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[r.discrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, ZipfInRangeAndSkewed) {
  Rng r(29);
  const std::size_t n = 50;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::size_t z = r.zipf(n, 1.2);
    ASSERT_LT(z, n);
    ++counts[z];
  }
  // Rank 0 must dominate the tail ranks under a Zipf law.
  EXPECT_GT(counts[0], counts[10] * 3);
  EXPECT_GT(counts[0], counts[n - 1] * 10);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(31);
  for (int trial = 0; trial < 100; ++trial) {
    auto picks = r.sample_without_replacement(20, 8);
    std::set<std::size_t> s(picks.begin(), picks.end());
    EXPECT_EQ(s.size(), 8u);
    for (auto p : picks) EXPECT_LT(p, 20u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto sorted = v;
  r.shuffle(v);
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(10000);
  lsi::util::parallel_for(
      0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*grain=*/16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksPartitionExactly) {
  std::atomic<long long> total{0};
  lsi::util::parallel_for_chunks(
      5, 100005,
      [&](std::size_t lo, std::size_t hi) {
        long long local = 0;
        for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
        total.fetch_add(local);
      },
      /*grain=*/64);
  long long expect = 0;
  for (std::size_t i = 5; i < 100005; ++i) expect += static_cast<long long>(i);
  EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  lsi::util::parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Strings, ToLower) {
  EXPECT_EQ(lsi::util::to_lower("MiXeD Case-42"), "mixed case-42");
}

TEST(Strings, SplitDropsEmptyFields) {
  auto parts = lsi::util::split("a,,b;;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(lsi::util::trim("  hi \t"), "hi");
  EXPECT_EQ(lsi::util::trim("   "), "");
}

TEST(Strings, IsAlpha) {
  EXPECT_TRUE(lsi::util::is_alpha("hello"));
  EXPECT_FALSE(lsi::util::is_alpha("hel1o"));
  EXPECT_FALSE(lsi::util::is_alpha(""));
}

TEST(Strings, Join) {
  EXPECT_EQ(lsi::util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(lsi::util::join({}, ","), "");
}

TEST(Strings, JsonEscape) {
  EXPECT_EQ(lsi::util::json_escape("plain"), "plain");
  EXPECT_EQ(lsi::util::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(lsi::util::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(lsi::util::json_escape(std::string_view("\x01", 1)), "\\u0001");
  // Well-formed UTF-8 (2, 3 and 4 bytes, up to U+10FFFF) passes through.
  for (const char* valid : {"caf\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",
                            "\xf4\x8f\xbf\xbf", "\xed\x9f\xbf"}) {
    EXPECT_EQ(lsi::util::json_escape(valid), valid);
  }
  // Each maximal invalid subsequence becomes one U+FFFD escape.
  const struct {
    const char* in;
    const char* out;
  } invalid[] = {
      {"\xff", "\\ufffd"},
      {"a\xff" "b", "a\\ufffdb"},
      {"\x80", "\\ufffd"},                    // lone continuation byte
      {"\xc0\xaf", "\\ufffd\\ufffd"},         // overlong '/'
      {"\xe0\x80\xaf", "\\ufffd\\ufffd\\ufffd"},  // overlong 3-byte form
      {"\xed\xa0\x80", "\\ufffd\\ufffd\\ufffd"},  // surrogate U+D800
      {"\xf4\x90\x80\x80", "\\ufffd\\ufffd\\ufffd\\ufffd"},  // U+110000
      {"\xf5", "\\ufffd"},
      {"\xe2\x82", "\\ufffd"},          // truncated at the end
      {"\xe2\x82x", "\\ufffdx"},        // truncated mid-string
      {"\xf0\x9f\x98\"", "\\ufffd\\\""},  // truncated before a quote
  };
  for (const auto& c : invalid) {
    EXPECT_EQ(lsi::util::json_escape(c.in), c.out) << c.in;
  }
}

TEST(Table, AlignsAndCounts) {
  lsi::util::TextTable t({"doc", "cosine"});
  t.add_row({"M9", "1.00"});
  t.add_row({"M12", "0.88"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream ss;
  t.print(ss, "Table");
  const std::string s = ss.str();
  EXPECT_NE(s.find("M12"), std::string::npos);
  EXPECT_NE(s.find("cosine"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  lsi::util::TextTable t({"a"});
  t.add_row({"x,y"});
  std::ostringstream ss;
  t.print_csv(ss);
  EXPECT_NE(ss.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(lsi::util::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(lsi::util::fmt_int(-42), "-42");
  EXPECT_EQ(lsi::util::fmt_pct(0.305, 1), "30.5%");
}

TEST(AsciiScatter, RendersLabelsAndAxes) {
  lsi::util::AsciiScatter plot(60, 20);
  plot.add(0.5, 0.25, "M1");
  plot.add(-0.2, -0.4, "M2");
  const std::string s = plot.render();
  EXPECT_NE(s.find("M1"), std::string::npos);
  EXPECT_NE(s.find("M2"), std::string::npos);
  EXPECT_NE(s.find('+'), std::string::npos);  // origin marker
}

}  // namespace
