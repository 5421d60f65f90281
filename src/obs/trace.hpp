#pragma once
// Trace spans: RAII timers over named pipeline stages ("lanczos.reorth",
// "retrieval.score", ...) that nest per thread and aggregate into a Sink.
//
// A Sink owns a MetricsRegistry plus per-span-name aggregates (count, total
// wall time, self time excluding child spans, and a latency histogram for
// p50/p95/p99). Exactly one sink is *active* process-wide at a time;
// instrumented code does
//
//   LSI_OBS_SPAN(span, "lanczos.reorth");
//
// which is a no-op unless a sink is currently installed (runtime toggle).
// With no sink the cost is one relaxed atomic load and a branch per site,
// which is why the hot paths can stay instrumented unconditionally — the
// acceptance bar is < 1% throughput change with the sink off.
//
// Nesting is tracked with a thread-local span stack, so spans opened inside
// util::parallel_for workers aggregate correctly per thread and self-time
// attribution never crosses threads.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace lsi::obs {

/// Aggregated timings of one span name. total/self are in seconds; a span's
/// self time is its total minus time spent in directly nested spans (on the
/// same thread, recorded to the same sink).
struct SpanStats {
  Counter count;
  Histogram latency;        ///< per-invocation wall seconds
  std::atomic<double> total_seconds{0.0};
  std::atomic<double> self_seconds{0.0};

  void record(double total_s, double self_s) noexcept;
};

/// Read-only view of one span name for exporters.
struct SpanSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
  HistogramSnapshot latency;
};

/// Aggregation target for spans and metrics. Create one, install it with
/// ScopedSink (or Sink::set_active), run the pipeline, then export via
/// obs/export.hpp.
class Sink {
 public:
  Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Aggregate for `name`, created on first use (stable address).
  SpanStats& span(const std::string& name);

  std::vector<SpanSnapshot> spans() const;

  /// The currently installed sink, or nullptr when observability is off at
  /// runtime. One relaxed load — safe and cheap on any hot path.
  static Sink* active() noexcept;
  /// Installs `sink` (nullptr disables); returns the previous sink.
  static Sink* set_active(Sink* sink) noexcept;

 private:
  MetricsRegistry metrics_;
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<SpanStats>> spans_;
};

/// RAII: installs a sink for the current scope, restores the previous one on
/// exit. The toggle is process-global; scoping keeps bench/CLI usage tidy.
class ScopedSink {
 public:
  explicit ScopedSink(Sink* sink) noexcept
      : previous_(Sink::set_active(sink)) {}
  ~ScopedSink() { Sink::set_active(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* previous_;
};

/// RAII span. Captures the active sink at construction; records on
/// destruction (or stop()). `name` must outlive the span — pass a string
/// literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan() { stop(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early (idempotent).
  void stop() noexcept;

  /// Whether this span is recording (a sink was active at construction).
  bool live() const noexcept { return sink_ != nullptr; }

 private:
  using clock = std::chrono::steady_clock;

  Sink* sink_ = nullptr;          ///< null = disabled, whole span is a no-op
  const char* name_ = nullptr;
  TraceSpan* parent_ = nullptr;   ///< enclosing live span on this thread
  double child_seconds_ = 0.0;    ///< accumulated by completing children
  clock::time_point start_;
};

/// Declares a span variable named `var` timing stage `name`.
#define LSI_OBS_SPAN(var, name) ::lsi::obs::TraceSpan var(name)

/// Bumps counter `name` on the active sink's registry, if any. For hot-path
/// counters outside a span (e.g. cache hit/miss).
inline void count(const char* name, std::uint64_t n = 1) {
  if (Sink* s = Sink::active()) s->metrics().counter(name).add(n);
}

/// Sets gauge `name` on the active sink's registry, if any.
inline void gauge(const char* name, double v) {
  if (Sink* s = Sink::active()) s->metrics().gauge(name).set(v);
}

}  // namespace lsi::obs
