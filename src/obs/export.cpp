#include "obs/export.hpp"

#include <ostream>

#include "util/json.hpp"
#include "util/table.hpp"

namespace lsi::obs {

namespace {

double measured_over_predicted(const FlopComparison& f) {
  return f.predicted > 0 ? static_cast<double>(f.measured) /
                               static_cast<double>(f.predicted)
                         : 0.0;
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

std::string to_json(const StatsDoc& doc) {
  util::JsonWriter json;
  json.begin_object().key("schema").value("lsi.stats.v1")
      .key("name").value(doc.name).key("params").begin_object();
  for (const auto& [name, v] : doc.params) json.key(name).value(v);
  json.end_object().key("counters").begin_object();
  for (const auto& [name, v] : doc.counters) json.key(name).value(v);
  json.end_object().key("gauges").begin_object();
  for (const auto& [name, v] : doc.gauges) json.key(name).value(v);
  json.end_object().key("spans").begin_array();
  for (const SpanSnapshot& s : doc.spans) {
    json.begin_object().key("name").value(s.name).key("count").value(s.count)
        .key("total_s").value(s.total_seconds)
        .key("self_s").value(s.self_seconds)
        .key("mean_s").value(s.latency.mean())
        .key("p50_s").value(s.latency.quantile(0.50))
        .key("p95_s").value(s.latency.quantile(0.95))
        .key("p99_s").value(s.latency.quantile(0.99))
        .key("min_s").value(s.latency.min).key("max_s").value(s.latency.max)
        .end_object();
  }
  json.end_array().key("flops").begin_array();
  for (const FlopComparison& f : doc.flops) {
    json.begin_object().key("name").value(f.name)
        .key("predicted").value(f.predicted).key("measured").value(f.measured)
        .key("measured_over_predicted").value(measured_over_predicted(f))
        .end_object();
  }
  return std::move(json.end_array().end_object()).take() + '\n';
}

void write_json(std::ostream& os, const StatsDoc& doc) { os << to_json(doc); }

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
      t.add_row({f.name, util::fmt_int(static_cast<long long>(f.predicted)),
                 util::fmt_int(static_cast<long long>(f.measured)),
                 util::fmt(measured_over_predicted(f), 4)});
    }
    t.print_csv(os);
  }
}

}  // namespace lsi::obs
