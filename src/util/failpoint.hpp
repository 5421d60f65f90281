#pragma once
// Deterministic fault injection for the replication/failover tests
// (docs/REPLICATION.md has the site catalog).
//
// A failpoint is a named site in production code — "concurrent.fold",
// "replica.health_probe", ... — that a test can *arm* with an action:
//
//   kBlock  every matching hit parks the calling thread until the site is
//           disarmed (the deterministic "wedged writer": no sleeps, no
//           timing assumptions — the test observes the park via
//           wait_for_blocked, does its damage, then disarms to release);
//   kFail   every matching hit returns true to the call site, which
//           translates it into its local failure (a health probe reports
//           the replica unhealthy, etc.), optionally auto-disarming after
//           a hit budget.
//
// Sites carry an *instance tag* so one replica of one shard can be faulted
// while its siblings run clean: ConcurrentOptions::failpoint_tag threads a
// tag like "s0.r2" into every site an indexer hits, and arm()'s tag_filter
// selects it ("" matches every instance).
//
// Tests synchronize on facts, not time: wait_for_hits / wait_for_blocked
// block until the site has fired (or parked) n times. The timeout is a
// hang-safety net for a failing test, never a synchronization primitive.
//
// Cost discipline mirrors the observability layer (obs/trace.hpp): with no
// site armed, a compiled-in failpoint is one relaxed atomic load and a
// branch; configuring with -DLSI_FAILPOINTS_DISABLE=ON compiles every site
// out entirely (LSI_FAILPOINTS_ENABLED=0), the release-build posture.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#ifndef LSI_FAILPOINTS_ENABLED
#define LSI_FAILPOINTS_ENABLED 1
#endif

namespace lsi::util {

/// Process-global failpoint registry. All members are thread-safe; tests
/// arm/disarm, instrumented code hits. Reset between tests with disarm_all().
class Failpoints {
 public:
  enum class Action {
    kOff,    ///< site kept only to count matching hits; hits pass through
    kBlock,  ///< matching hits park until the site is disarmed
    kFail,   ///< matching hits return true (the site's local failure)
  };

  static Failpoints& instance();

  /// Arms `site`. `tag_filter` selects which instance hits match (exact
  /// string match; "" matches all). For kFail, `budget` > 0 auto-disarms
  /// the site after that many matching hits (0 = until disarm()).
  /// Re-arming an armed site replaces its action and releases any threads
  /// parked under the previous one.
  void arm(std::string_view site, Action action,
           std::string_view tag_filter = {}, std::uint64_t budget = 0);

  /// Sets `site` to kOff, releasing parked threads. Hit counts survive and
  /// keep growing with later matching hits, so a test can disarm first and
  /// still count how often the site is passed.
  void disarm(std::string_view site);

  /// Removes every site (counts included) and releases all parked threads.
  /// Restores the zero-overhead fast path; call from test teardown.
  void disarm_all();

  /// The instrumented site's entry point — use the LSI_FAILPOINT macro, not
  /// this, so sites compile out. Returns true when the hit should fail.
  bool hit(const char* site, std::string_view tag);

  /// Matching hits of `site` so far (parked hits count on arrival).
  std::uint64_t hits(std::string_view site) const;

  /// Threads currently parked inside `site`.
  std::size_t blocked(std::string_view site) const;

  /// Blocks until hits(site) >= n. Returns false on timeout (test failure
  /// safety net; the wait itself is event-driven, not a poll).
  bool wait_for_hits(std::string_view site, std::uint64_t n,
                     std::chrono::milliseconds timeout);

  /// Blocks until blocked(site) >= n — the deterministic "the writer is
  /// wedged now" observation. Returns false on timeout.
  bool wait_for_blocked(std::string_view site, std::size_t n,
                        std::chrono::milliseconds timeout);

  /// True when any site is armed (relaxed; the macro's fast path).
  static bool any_armed() noexcept {
    return armed_sites_.load(std::memory_order_relaxed) != 0;
  }

 private:
  struct Site {
    Action action = Action::kOff;
    std::string tag_filter;
    std::uint64_t budget = 0;  ///< kFail hits remaining; 0 = unlimited
    std::uint64_t hits = 0;
    std::size_t parked = 0;
    std::uint64_t epoch = 0;  ///< bumped on arm/disarm; wakes parked threads
    /// disarm_all ran while threads were parked here: the last thread out
    /// erases the entry (disarm_all cannot, or the parked threads' Site
    /// reference would dangle).
    bool erase_on_release = false;
  };

  static std::atomic<int> armed_sites_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< hit-count, park and epoch changes
  std::map<std::string, Site, std::less<>> sites_;
};

inline bool failpoint_hit(const char* site, std::string_view tag) {
#if LSI_FAILPOINTS_ENABLED
  if (!Failpoints::any_armed()) return false;
  return Failpoints::instance().hit(site, tag);
#else
  (void)site;
  (void)tag;
  return false;
#endif
}

/// Named injection site: evaluates to true when an armed kFail matches.
/// One relaxed load + branch when nothing is armed; nothing at all under
/// LSI_FAILPOINTS_ENABLED=0.
#define LSI_FAILPOINT(site, tag) ::lsi::util::failpoint_hit(site, tag)

}  // namespace lsi::util
