#include "serve/session.hpp"

#include <cstdio>
#include <random>

namespace lsi::serve {

namespace {

/// Open sessions one table holds at most.
constexpr std::size_t kMaxSessions = 4096;

std::uint64_t device_seed() {
  std::random_device device;
  return (static_cast<std::uint64_t>(device()) << 32) ^ device();
}

}  // namespace

SessionTable::SessionTable(std::chrono::seconds ttl)
    : ttl_(ttl), rng_(device_seed()) {}

Session* SessionTable::create(
    std::shared_ptr<const core::ShardedSnapshot> pin,
    std::chrono::steady_clock::time_point now) {
  if (sessions_.size() >= kMaxSessions) return nullptr;
  // Token = serial + 64 bits from a generator seeded by the OS: unique by
  // construction, and another local process cannot predict it.
  char token[36];
  std::snprintf(token, sizeof token, "s%llx-%016llx",
                static_cast<unsigned long long>(next_serial_++),
                static_cast<unsigned long long>(rng_.next_u64()));
  auto session = std::make_unique<Session>();
  session->token = token;
  session->pin = std::move(pin);
  session->last_used = now;
  Session* raw = session.get();
  sessions_.emplace(raw->token, std::move(session));
  return raw;
}

Session* SessionTable::find(std::string_view token,
                            std::chrono::steady_clock::time_point now) {
  const auto it = sessions_.find(std::string(token));
  if (it == sessions_.end()) return nullptr;
  it->second->last_used = now;
  return it->second.get();
}

bool SessionTable::release(std::string_view token) {
  return sessions_.erase(std::string(token)) > 0;
}

std::size_t SessionTable::evict_expired(
    std::chrono::steady_clock::time_point now) {
  std::size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second->last_used > ttl_) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

}  // namespace lsi::serve
