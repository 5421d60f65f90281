// SearchOptions unit tests: the Validate() contract the HTTP daemon's 400
// answers lean on and the deadline helpers' edge cases.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "lsi/search_options.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

TEST(SearchOptions, DefaultsValidate) {
  const SearchOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  EXPECT_EQ(opts.search, SearchMode::kAuto);
  EXPECT_EQ(opts.nprobe, 0u);
  EXPECT_DOUBLE_EQ(opts.recall_target, 0.95);
  EXPECT_FALSE(opts.has_deadline());
  EXPECT_FALSE(opts.deadline_expired());
}

TEST(SearchOptions, NprobeWithExactModeRejected) {
  SearchOptions opts;
  opts.search = SearchMode::kExact;
  opts.nprobe = 4;
  const Status s = opts.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("nprobe"), std::string::npos);

  // The same nprobe is fine under kPruned and kAuto.
  opts.search = SearchMode::kPruned;
  EXPECT_TRUE(opts.Validate().ok());
  opts.search = SearchMode::kAuto;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(SearchOptions, RecallTargetMustBeInUnitInterval) {
  SearchOptions opts;
  opts.recall_target = 0.0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.recall_target = -0.5;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.recall_target = 1.5;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.recall_target = 1.0;  // inclusive upper bound: "exact, please"
  EXPECT_TRUE(opts.Validate().ok());
  opts.recall_target = 1e-9;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(SearchOptions, MinCosineAboveOneRejected) {
  SearchOptions opts;
  opts.min_cosine = 1.25;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.min_cosine = 1.0;
  EXPECT_TRUE(opts.Validate().ok());
  opts.min_cosine = -1.0;
  EXPECT_TRUE(opts.Validate().ok());
}

// A NaN passes every ordered range check, and an infinity passes the
// one-sided ones; every floating-point knob must reject both.
TEST(SearchOptions, NonFiniteKnobsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    SearchOptions opts;
    opts.recall_target = bad;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << bad;

    opts = SearchOptions{};
    opts.min_cosine = bad;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << bad;

    opts = SearchOptions{};
    opts.rrf_k = bad;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << bad;

    opts = SearchOptions{};
    opts.collapse_cosine = bad;
    EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SearchOptions, DeadlineHelpers) {
  SearchOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_TRUE(opts.has_deadline());
  EXPECT_FALSE(opts.deadline_expired());

  opts.deadline = std::chrono::steady_clock::now() - std::chrono::hours(1);
  EXPECT_TRUE(opts.has_deadline());
  EXPECT_TRUE(opts.deadline_expired());
}

TEST(SearchMode, Names) {
  EXPECT_EQ(search_mode_name(SearchMode::kAuto), "auto");
  EXPECT_EQ(search_mode_name(SearchMode::kExact), "exact");
  EXPECT_EQ(search_mode_name(SearchMode::kPruned), "pruned");
}

}  // namespace
