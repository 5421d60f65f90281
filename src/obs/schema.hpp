#pragma once
// Structural validation of the JSON documents the library emits: any
// daemon response body, the "lsi.stats.v1" documents CI checks in every
// BENCH_<name>.json, and the daemon's /search response (no external JSON
// dependency; a ~150-line recursive-descent parser is all the layer needs).

#include <string_view>

#include "lsi/status.hpp"

namespace lsi::obs {

/// OK when `text` is exactly one well-formed JSON document (any shape);
/// otherwise DataLoss naming the first syntax error and its offset.
Status validate_json(std::string_view text);

/// Parses `text` as JSON and checks the lsi.stats.v1 shape:
///   - top level object with "schema": "lsi.stats.v1" and a string "name";
///   - "params"/"gauges": objects with numeric values;
///   - "counters": object with nonnegative integer values;
///   - "spans": array of objects each carrying a string "name" and numeric
///     "count", "total_s", "self_s", "p50_s", "p95_s", "p99_s";
///   - "flops": array of objects each carrying a string "name" and numeric
///     "predicted" and "measured".
/// Returns OK or a Status pinpointing the first violation.
Status validate_stats_json(std::string_view text);

/// Checks one /search response body (docs/SERVING.md): a top-level object
/// with exactly "results", "facets" and "generations" arrays — plus string
/// "session", numeric "cursor" and "total", and boolean "more" when
/// `session` is set — where every result has exactly the keys doc, label,
/// score, cosine, shard, duplicates, every facet exactly term and weight,
/// and every generation is a number. Returns OK or the first violation.
Status validate_search_json(std::string_view text, bool session);

}  // namespace lsi::obs
