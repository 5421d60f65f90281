#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace lsi::obs {

namespace {

/// Locale-independent shortest-roundtrip-ish double formatting; JSON has no
/// inf/nan, so those degrade to 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

StatsDoc StatsDoc::from_sink(std::string name, const Sink& sink) {
  StatsDoc doc;
  doc.name = std::move(name);
  doc.counters = sink.metrics().counters();
  doc.gauges = sink.metrics().gauges();
  doc.spans = sink.spans();
  return doc;
}

void write_json(std::ostream& os, const StatsDoc& doc) {
  os << "{\n";
  os << "  \"schema\": \"lsi.stats.v1\",\n";
  os << "  \"name\": \"" << util::json_escape(doc.name) << "\",\n";

  os << "  \"params\": {";
  for (std::size_t i = 0; i < doc.params.size(); ++i) {
    os << (i ? ", " : "") << '"' << util::json_escape(doc.params[i].first)
       << "\": " << json_number(doc.params[i].second);
  }
  os << "},\n";

  os << "  \"counters\": {";
  for (std::size_t i = 0; i < doc.counters.size(); ++i) {
    os << (i ? ", " : "") << '"' << util::json_escape(doc.counters[i].first)
       << "\": " << doc.counters[i].second;
  }
  os << "},\n";

  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < doc.gauges.size(); ++i) {
    os << (i ? ", " : "") << '"' << util::json_escape(doc.gauges[i].first)
       << "\": " << json_number(doc.gauges[i].second);
  }
  os << "},\n";

  os << "  \"spans\": [";
  for (std::size_t i = 0; i < doc.spans.size(); ++i) {
    const SpanSnapshot& s = doc.spans[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << util::json_escape(s.name) << "\", \"count\": " << s.count
       << ", \"total_s\": " << json_number(s.total_seconds)
       << ", \"self_s\": " << json_number(s.self_seconds)
       << ", \"mean_s\": " << json_number(s.latency.mean())
       << ", \"p50_s\": " << json_number(s.latency.quantile(0.50))
       << ", \"p95_s\": " << json_number(s.latency.quantile(0.95))
       << ", \"p99_s\": " << json_number(s.latency.quantile(0.99))
       << ", \"min_s\": " << json_number(s.latency.min)
       << ", \"max_s\": " << json_number(s.latency.max) << "}";
  }
  os << (doc.spans.empty() ? "" : "\n  ") << "],\n";

  os << "  \"flops\": [";
  for (std::size_t i = 0; i < doc.flops.size(); ++i) {
    const FlopComparison& f = doc.flops[i];
    const double ratio =
        f.predicted > 0
            ? static_cast<double>(f.measured) / static_cast<double>(f.predicted)
            : 0.0;
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << util::json_escape(f.name) << "\", \"predicted\": " << f.predicted
       << ", \"measured\": " << f.measured
       << ", \"measured_over_predicted\": " << json_number(ratio) << "}";
  }
  os << (doc.flops.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
}

std::string to_json(const StatsDoc& doc) {
  std::ostringstream os;
  write_json(os, doc);
  return os.str();
}

void write_csv(std::ostream& os, const StatsDoc& doc) {
  if (!doc.params.empty()) {
    util::TextTable t({"param", "value"});
    for (const auto& [k, v] : doc.params) t.add_row({k, util::fmt(v, 6)});
    t.print_csv(os);
    os << "\n";
  }
  if (!doc.counters.empty()) {
    util::TextTable t({"counter", "value"});
    for (const auto& [k, v] : doc.counters) {
      t.add_row({k, util::fmt_int(static_cast<long long>(v))});
    }
    t.print_csv(os);
    os << "\n";
  }
  if (!doc.gauges.empty()) {
    util::TextTable t({"gauge", "value"});
    for (const auto& [k, v] : doc.gauges) t.add_row({k, util::fmt(v, 6)});
    t.print_csv(os);
    os << "\n";
  }
  if (!doc.spans.empty()) {
    util::TextTable t({"span", "count", "total_s", "self_s", "mean_s",
                       "p50_s", "p95_s", "p99_s"});
    for (const SpanSnapshot& s : doc.spans) {
      t.add_row({s.name, util::fmt_int(static_cast<long long>(s.count)),
                 util::fmt(s.total_seconds, 6), util::fmt(s.self_seconds, 6),
                 util::fmt(s.latency.mean(), 6),
                 util::fmt(s.latency.quantile(0.50), 6),
                 util::fmt(s.latency.quantile(0.95), 6),
                 util::fmt(s.latency.quantile(0.99), 6)});
    }
    t.print_csv(os);
    os << "\n";
  }
  if (!doc.flops.empty()) {
    util::TextTable t({"flops", "predicted", "measured",
                       "measured_over_predicted"});
    for (const FlopComparison& f : doc.flops) {
      const double ratio = f.predicted > 0 ? static_cast<double>(f.measured) /
                                                 static_cast<double>(f.predicted)
                                           : 0.0;
      t.add_row({f.name, util::fmt_int(static_cast<long long>(f.predicted)),
                 util::fmt_int(static_cast<long long>(f.measured)),
                 util::fmt(ratio, 4)});
    }
    t.print_csv(os);
  }
}

}  // namespace lsi::obs
