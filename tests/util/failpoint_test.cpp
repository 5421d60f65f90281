// Failpoint registry unit tests: arm/disarm lifecycle, tag filtering, kFail
// budgets, kBlock park/release, and the wait_for_* synchronization the
// replication chaos tests build on. Everything here synchronizes on facts
// (hit counts, parked counts) — the timeouts are hang-safety only.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "util/failpoint.hpp"

namespace {

using lsi::util::Failpoints;
using Action = lsi::util::Failpoints::Action;
using namespace std::chrono_literals;

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().disarm_all(); }
  void TearDown() override { Failpoints::instance().disarm_all(); }
};

TEST_F(FailpointTest, UnarmedSiteIsFalseAndUncounted) {
  EXPECT_FALSE(Failpoints::any_armed());
  EXPECT_FALSE(LSI_FAILPOINT("test.site", "r0"));
  EXPECT_EQ(Failpoints::instance().hits("test.site"), 0u);
}

TEST_F(FailpointTest, FailActionReturnsTrueAndCounts) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kFail);
  EXPECT_TRUE(Failpoints::any_armed());
  EXPECT_TRUE(LSI_FAILPOINT("test.site", "r0"));
  EXPECT_TRUE(LSI_FAILPOINT("test.site", "r1"));  // "" filter matches all
  EXPECT_EQ(fp.hits("test.site"), 2u);
  // Other sites stay clean.
  EXPECT_FALSE(LSI_FAILPOINT("test.other", "r0"));
}

TEST_F(FailpointTest, TagFilterSelectsOneInstance) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kFail, "s0.r2");
  EXPECT_FALSE(LSI_FAILPOINT("test.site", "s0.r0"));
  EXPECT_FALSE(LSI_FAILPOINT("test.site", "s1.r2"));
  EXPECT_TRUE(LSI_FAILPOINT("test.site", "s0.r2"));
  // Non-matching hits are not counted: the count is of *faulted* hits.
  EXPECT_EQ(fp.hits("test.site"), 1u);
}

TEST_F(FailpointTest, FailBudgetAutoDisarms) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kFail, {}, 2);
  EXPECT_TRUE(LSI_FAILPOINT("test.site", ""));
  EXPECT_TRUE(LSI_FAILPOINT("test.site", ""));
  EXPECT_FALSE(LSI_FAILPOINT("test.site", ""));  // budget exhausted
  // The auto-disarmed (kOff) site still counts the pass-through hit.
  EXPECT_EQ(fp.hits("test.site"), 3u);
}

TEST_F(FailpointTest, DisarmKeepsCountsForPostmortem) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kFail);
  EXPECT_TRUE(LSI_FAILPOINT("test.site", ""));
  fp.disarm("test.site");
  EXPECT_FALSE(LSI_FAILPOINT("test.site", ""));
  EXPECT_EQ(fp.hits("test.site"), 2u);  // the disarmed hit counts too
  fp.disarm_all();
  EXPECT_EQ(fp.hits("test.site"), 0u);
  EXPECT_FALSE(Failpoints::any_armed());
}

TEST_F(FailpointTest, OffSiteCountsMatchingHitsAndPassesThrough) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kOff, "s0.r1");
  EXPECT_TRUE(Failpoints::any_armed());
  EXPECT_FALSE(LSI_FAILPOINT("test.site", "s0.r1"));
  EXPECT_FALSE(LSI_FAILPOINT("test.site", "s0.r1"));
  EXPECT_FALSE(LSI_FAILPOINT("test.site", "s0.r0"));  // filtered: uncounted
  EXPECT_EQ(fp.hits("test.site"), 2u);
  EXPECT_TRUE(fp.wait_for_hits("test.site", 2, 10s));
}

TEST_F(FailpointTest, BlockParksUntilDisarm) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kBlock);

  std::thread t([] {
    // The hit parks; after release it reports "no fault" to the call site.
    EXPECT_FALSE(LSI_FAILPOINT("test.site", "r0"));
  });
  // Deterministic observation of the wedge: the thread IS parked now.
  ASSERT_TRUE(fp.wait_for_blocked("test.site", 1, 10s));
  EXPECT_EQ(fp.blocked("test.site"), 1u);
  EXPECT_EQ(fp.hits("test.site"), 1u);

  fp.disarm("test.site");
  t.join();
  EXPECT_EQ(fp.blocked("test.site"), 0u);
}

TEST_F(FailpointTest, RearmReleasesParkedThreads) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kBlock);
  std::thread t([] { (void)LSI_FAILPOINT("test.site", "r0"); });
  ASSERT_TRUE(fp.wait_for_blocked("test.site", 1, 10s));
  // Re-arming (here: flipping to kFail) bumps the epoch and frees the
  // parked thread; the NEXT hit sees the new action.
  fp.arm("test.site", Action::kFail);
  t.join();
  EXPECT_TRUE(LSI_FAILPOINT("test.site", "r0"));
}

TEST_F(FailpointTest, DisarmAllReleasesParkedThreadsAndResets) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kBlock);
  std::thread t1([] { (void)LSI_FAILPOINT("test.site", "a"); });
  std::thread t2([] { (void)LSI_FAILPOINT("test.site", "b"); });
  ASSERT_TRUE(fp.wait_for_blocked("test.site", 2, 10s));
  fp.disarm_all();
  t1.join();
  t2.join();
  // The last thread out erased the entry: fast path fully restored.
  EXPECT_FALSE(Failpoints::any_armed());
  EXPECT_EQ(fp.hits("test.site"), 0u);
}

TEST_F(FailpointTest, WaitForHitsObservesProgress) {
  auto& fp = Failpoints::instance();
  fp.arm("test.site", Action::kFail);
  EXPECT_FALSE(fp.wait_for_hits("test.site", 1, 50ms));  // nothing yet
  std::thread t([] {
    for (int i = 0; i < 3; ++i) (void)LSI_FAILPOINT("test.site", "");
  });
  EXPECT_TRUE(fp.wait_for_hits("test.site", 3, 10s));
  t.join();
}

}  // namespace
