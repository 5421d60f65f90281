#include "lsi/search_options.hpp"

#include <cmath>
#include <optional>

#include "util/strings.hpp"

namespace lsi::core {

namespace {

/// The recall-target and collapse range; false for NaN.
bool in_unit_interval(double v) { return v > 0.0 && v <= 1.0; }

/// The RRF constant's range; false for NaN and infinity.
bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

std::optional<std::size_t> positive_size(std::string_view s) {
  const std::optional<std::size_t> v = util::parse_size(s);
  if (v && *v == 0) return std::nullopt;
  return v;
}

}  // namespace

Status SearchOptions::Validate() const {
  if (search == SearchMode::kExact && nprobe > 0) {
    return Status::InvalidArgument(
        "nprobe is meaningless with search == kExact (exact scan probes "
        "nothing); drop nprobe or use kPruned");
  }
  if (!in_unit_interval(recall_target)) {
    return Status::InvalidArgument("recall_target must be in (0, 1], got " +
                                   std::to_string(recall_target));
  }
  if (!std::isfinite(min_cosine) || min_cosine > 1.0) {
    return Status::InvalidArgument(
        "min_cosine must be a finite value of at most 1 (above 1 filters "
        "every document), got " +
        std::to_string(min_cosine));
  }
  if (!positive_finite(rrf_k)) {
    return Status::InvalidArgument(
        "rrf_k must be positive and finite (rank-1 score is "
        "1/(rrf_k + 1)), got " +
        std::to_string(rrf_k));
  }
  if (!std::isfinite(collapse_cosine) || collapse_cosine > 1.0) {
    return Status::InvalidArgument(
        "collapse_cosine must be finite and at most 1 (above 1 collapses "
        "nothing by construction); use a value in (0, 1] or leave it "
        "negative to disable");
  }
  return Status::Ok();
}

Status parse_search_knobs(const KnobLookup& lookup, SearchOptions& opts) {
  std::array<std::string_view, kSearchKnobs.size()> values;
  for (std::size_t i = 0; i < kSearchKnobs.size(); ++i) {
    values[i] = lookup(kSearchKnobs[i]);
  }
  // Bound in kSearchKnobs order.
  const auto& [exact, nprobe, recall, deadline_ms, merge, rrf_k, collapse,
               facets] = values;
  const auto invalid = [](std::string message) {
    return Status::InvalidArgument(std::move(message));
  };

  if (!exact.empty() && exact != "0" && exact != "1") {
    return invalid("exact must be 0 or 1");
  }
  const bool want_exact = exact == "1";
  if (want_exact && !nprobe.empty()) {
    return invalid("nprobe cannot be combined with exact=1");
  }
  if (want_exact && !recall.empty()) {
    return invalid("recall cannot be combined with exact=1");
  }
  if (!nprobe.empty() && !recall.empty()) {
    return invalid("nprobe and recall are mutually exclusive; pass one");
  }
  if (want_exact) opts.search = SearchMode::kExact;
  if (!nprobe.empty()) {
    const std::optional<std::size_t> v = positive_size(nprobe);
    if (!v) return invalid("nprobe must be a positive integer");
    opts.nprobe = *v;
  }
  if (!recall.empty()) {
    const std::optional<double> v = util::parse_finite(recall);
    if (!v || !in_unit_interval(*v)) {
      return invalid("recall must be a number in (0, 1]");
    }
    opts.recall_target = *v;
  }
  if (!deadline_ms.empty()) {
    const std::optional<std::size_t> ms = positive_size(deadline_ms);
    if (!ms || *ms > kMaxDeadlineMs) {
      return invalid("deadline_ms must be a positive integer of at most " +
                     std::to_string(kMaxDeadlineMs) + " (one day)");
    }
    opts.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(static_cast<std::int64_t>(*ms));
  }
  if (!merge.empty() && !gather::parse_merge_policy(merge, opts.merge)) {
    return invalid("merge must be one of cosine, zscore, rrf");
  }
  if (!rrf_k.empty()) {
    const std::optional<double> v = util::parse_finite(rrf_k);
    if (!v || !positive_finite(*v)) {
      return invalid("rrf_k must be a positive finite number");
    }
    opts.rrf_k = *v;
  }
  if (!collapse.empty()) {
    const std::optional<double> v = util::parse_finite(collapse);
    if (!v || !in_unit_interval(*v)) {
      return invalid("collapse must be a cosine threshold in (0, 1]");
    }
    opts.collapse_cosine = *v;
  }
  if (!facets.empty()) {
    const std::optional<std::size_t> v = positive_size(facets);
    if (!v) return invalid("facets must be a positive integer");
    opts.facets = *v;
  }
  return Status::Ok();
}

std::string search_knobs_key(const KnobLookup& lookup) {
  std::string key;
  for (const std::string_view name : kSearchKnobs) {
    if (name == "deadline_ms") continue;
    key.append(lookup(name)).push_back('|');
  }
  return key;
}

}  // namespace lsi::core
