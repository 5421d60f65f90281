#include "util/failpoint.hpp"

namespace lsi::util {

std::atomic<int> Failpoints::armed_sites_{0};

Failpoints& Failpoints::instance() {
  static Failpoints registry;
  return registry;
}

void Failpoints::arm(std::string_view site, Action action,
                     std::string_view tag_filter, std::uint64_t budget) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = sites_.try_emplace(std::string(site));
    Site& s = it->second;
    s.action = action;
    s.tag_filter = std::string(tag_filter);
    s.budget = budget;
    s.erase_on_release = false;  // re-armed: the entry is live again
    ++s.epoch;  // threads parked under the previous arming re-evaluate
    if (inserted) armed_sites_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void Failpoints::disarm(std::string_view site) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return;
    it->second.action = Action::kOff;
    ++it->second.epoch;
    // The entry stays (still counted in armed_sites_) so hits() keeps
    // accumulating for post-disarm assertions; disarm_all() clears it.
  }
  cv_.notify_all();
}

void Failpoints::disarm_all() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, s] : sites_) {
      s.action = Action::kOff;
      ++s.epoch;
    }
    // Entries with parked threads must survive until those threads leave
    // (they re-check via epoch and exit); the last one out erases the entry
    // — see hit(). Park-free entries erase right here.
    for (auto it = sites_.begin(); it != sites_.end();) {
      if (it->second.parked == 0) {
        armed_sites_.fetch_sub(1, std::memory_order_relaxed);
        it = sites_.erase(it);
      } else {
        it->second.erase_on_release = true;
        ++it;
      }
    }
  }
  cv_.notify_all();
}

bool Failpoints::hit(const char* site, std::string_view tag) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sites_.find(std::string_view(site));
  if (it == sites_.end()) return false;
  Site& s = it->second;
  if (!s.tag_filter.empty() && s.tag_filter != tag) return false;
  ++s.hits;
  cv_.notify_all();  // wait_for_hits observers
  if (s.action == Action::kOff) return false;  // counted, passes through
  if (s.action == Action::kFail) {
    if (s.budget > 0 && --s.budget == 0) {
      s.action = Action::kOff;
      ++s.epoch;
    }
    return true;
  }
  // kBlock: park until this site is re-armed or disarmed.
  const std::uint64_t entry_epoch = s.epoch;
  ++s.parked;
  cv_.notify_all();  // wait_for_blocked observers
  cv_.wait(lock, [&] { return s.epoch != entry_epoch; });
  --s.parked;
  // Last thread out of an entry disarm_all left behind (it skips parked
  // entries): finish the erase so the zero-overhead fast path returns.
  if (s.erase_on_release && s.parked == 0) {
    armed_sites_.fetch_sub(1, std::memory_order_relaxed);
    sites_.erase(it);
  }
  cv_.notify_all();
  return false;
}

std::uint64_t Failpoints::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

std::size_t Failpoints::blocked(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.parked;
}

bool Failpoints::wait_for_hits(std::string_view site, std::uint64_t n,
                               std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    auto it = sites_.find(site);
    return it != sites_.end() && it->second.hits >= n;
  });
}

bool Failpoints::wait_for_blocked(std::string_view site, std::size_t n,
                                  std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [&] {
    auto it = sites_.find(site);
    return it != sites_.end() && it->second.parked >= n;
  });
}

}  // namespace lsi::util
