#pragma once
// Exporters for the observability layer: one stats document per pipeline run
// (schema "lsi.stats.v1"), rendered as JSON (machine-readable, what CI
// archives as BENCH_<name>.json) or CSV (via util/table, for spreadsheets).
// obs/schema.hpp validates the JSON side; docs/OBSERVABILITY.md describes
// every field.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace lsi::obs {

/// One predicted-vs-measured flop comparison row (the Section 4.2 cost-model
/// check): `predicted` from the lsi::flops model, `measured` from the
/// instrumented kernels' own operation counts.
struct FlopComparison {
  std::string name;
  std::uint64_t predicted = 0;
  std::uint64_t measured = 0;
};

/// A complete stats document: identifying name, free-form numeric params
/// (problem shape, batch size, ...), the sink's counters/gauges/spans, and
/// predicted-vs-measured flops rows.
struct StatsDoc {
  std::string name;
  std::vector<std::pair<std::string, double>> params;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<SpanSnapshot> spans;
  std::vector<FlopComparison> flops;

  /// Convenience: document named `name` holding everything `sink` recorded.
  static StatsDoc from_sink(std::string name, const Sink& sink);
};

/// Renders the "lsi.stats.v1" JSON document through util::JsonWriter: one
/// compact line plus a newline, stable key order, lossless numbers.
void write_json(std::ostream& os, const StatsDoc& doc);

/// Same content as CSV sections (params, counters, gauges, spans, flops),
/// each a util::TextTable in RFC-4180 form separated by blank lines.
void write_csv(std::ostream& os, const StatsDoc& doc);

/// The document write_json renders, as a string.
std::string to_json(const StatsDoc& doc);

}  // namespace lsi::obs
