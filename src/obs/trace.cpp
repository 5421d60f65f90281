#include "obs/trace.hpp"

#include <mutex>

namespace lsi::obs {

namespace {

std::atomic<Sink*> g_active_sink{nullptr};
thread_local TraceSpan* t_span_top = nullptr;

void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void SpanStats::record(double total_s, double self_s) noexcept {
  count.add(1);
  latency.record(total_s);
  atomic_add(total_seconds, total_s);
  atomic_add(self_seconds, self_s);
}

SpanStats& Sink::span(const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    if (auto it = spans_.find(name); it != spans_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = spans_[name];
  if (!slot) slot = std::make_unique<SpanStats>();
  return *slot;
}

std::vector<SpanSnapshot> Sink::spans() const {
  std::shared_lock lock(mutex_);
  std::vector<SpanSnapshot> out;
  out.reserve(spans_.size());
  for (const auto& [name, s] : spans_) {
    SpanSnapshot snap;
    snap.name = name;
    snap.count = s->count.value();
    snap.total_seconds = s->total_seconds.load(std::memory_order_relaxed);
    snap.self_seconds = s->self_seconds.load(std::memory_order_relaxed);
    snap.latency = s->latency.snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

Sink* Sink::active() noexcept {
  return g_active_sink.load(std::memory_order_relaxed);
}

Sink* Sink::set_active(Sink* sink) noexcept {
  return g_active_sink.exchange(sink, std::memory_order_acq_rel);
}

TraceSpan::TraceSpan(const char* name) noexcept : sink_(Sink::active()) {
  if (!sink_) return;
  name_ = name;
  parent_ = t_span_top;
  t_span_top = this;
  start_ = clock::now();
}

void TraceSpan::stop() noexcept {
  if (!sink_) return;
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start_).count();
  // Pop this span off the thread's stack. Destruction order guarantees we
  // are the top for well-nested scopes; the guard keeps a stray
  // heap-allocated span from corrupting the stack.
  if (t_span_top == this) t_span_top = parent_;
  if (parent_ != nullptr && parent_->sink_ == sink_) {
    parent_->child_seconds_ += elapsed;
  }
  sink_->span(name_).record(elapsed, elapsed - child_seconds_);
  sink_ = nullptr;
}

}  // namespace lsi::obs
