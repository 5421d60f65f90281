// parse_search_knobs unit tests: every row of kSearchKnobs with valid and
// invalid values, each cross-field rule and its precedence, and the session
// re-rank key. The daemon's /search and lsi_cli's --<knob> flags both go
// through this one parser, so its messages are their messages.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "lsi/search_options.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

using Params = std::map<std::string, std::string, std::less<>>;

KnobLookup lookup_in(const Params& params) {
  return [&params](std::string_view name) -> std::string_view {
    const auto it = params.find(name);
    return it == params.end() ? std::string_view() : it->second;
  };
}

Status parse(const Params& params, SearchOptions& opts) {
  return parse_search_knobs(lookup_in(params), opts);
}

/// The message of parsing `params`, or "" when it parses.
std::string error_of(const Params& params) {
  SearchOptions opts;
  const Status s = parse(params, opts);
  if (s.ok()) return "";
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  return s.message();
}

TEST(SearchKnobs, NamesAreTheWireParameters) {
  const std::vector<std::string_view> names(kSearchKnobs.begin(),
                                            kSearchKnobs.end());
  EXPECT_EQ(names, (std::vector<std::string_view>{
                       "exact", "nprobe", "recall", "deadline_ms", "merge",
                       "rrf_k", "collapse", "facets"}));
  // The parser asks for every knob exactly once, in table order.
  std::vector<std::string_view> asked;
  SearchOptions opts;
  ASSERT_TRUE(parse_search_knobs(
                  [&](std::string_view name) {
                    asked.push_back(name);
                    return std::string_view();
                  },
                  opts)
                  .ok());
  EXPECT_EQ(asked, names);
}

TEST(SearchKnobs, AbsentKnobsKeepTheDefaults) {
  SearchOptions opts;
  ASSERT_TRUE(parse({}, opts).ok());
  const SearchOptions defaults;
  EXPECT_EQ(opts.search, defaults.search);
  EXPECT_EQ(opts.nprobe, defaults.nprobe);
  EXPECT_EQ(opts.recall_target, defaults.recall_target);
  EXPECT_FALSE(opts.has_deadline());
  EXPECT_EQ(opts.merge, defaults.merge);
  EXPECT_EQ(opts.rrf_k, defaults.rrf_k);
  EXPECT_EQ(opts.collapse_cosine, defaults.collapse_cosine);
  EXPECT_EQ(opts.facets, defaults.facets);
  // Unknown parameters are not knobs.
  ASSERT_TRUE(parse({{"top", "abc"}, {"cursor", "-1"}}, opts).ok());
}

TEST(SearchKnobs, ValidValuesOfEveryRow) {
  SearchOptions opts;
  ASSERT_TRUE(parse({{"exact", "0"}}, opts).ok());
  EXPECT_EQ(opts.search, SearchMode::kAuto);
  ASSERT_TRUE(parse({{"exact", "1"}}, opts).ok());
  EXPECT_EQ(opts.search, SearchMode::kExact);

  opts = {};
  ASSERT_TRUE(parse({{"nprobe", "7"}}, opts).ok());
  EXPECT_EQ(opts.nprobe, 7u);

  for (const auto& [text, value] :
       std::vector<std::pair<std::string, double>>{
           {"0.9", 0.9}, {"1", 1.0}, {"1e-9", 1e-9}}) {
    opts = {};
    ASSERT_TRUE(parse({{"recall", text}}, opts).ok()) << text;
    EXPECT_EQ(opts.recall_target, value);
  }

  opts = {};
  const auto minute = std::chrono::milliseconds(60000);
  const auto before = std::chrono::steady_clock::now();
  ASSERT_TRUE(parse({{"deadline_ms", "60000"}}, opts).ok());
  EXPECT_TRUE(opts.has_deadline());
  EXPECT_GE(opts.deadline, before + minute);
  EXPECT_LE(opts.deadline, std::chrono::steady_clock::now() + minute);
  ASSERT_TRUE(
      parse({{"deadline_ms", std::to_string(kMaxDeadlineMs)}}, opts).ok());

  for (const auto& [text, policy] :
       std::vector<std::pair<std::string, gather::MergePolicy>>{
           {"cosine", gather::MergePolicy::kRawCosine},
           {"zscore", gather::MergePolicy::kZScore},
           {"rrf", gather::MergePolicy::kRRF}}) {
    opts = {};
    ASSERT_TRUE(parse({{"merge", text}}, opts).ok()) << text;
    EXPECT_EQ(opts.merge, policy);
  }

  opts = {};
  ASSERT_TRUE(parse({{"rrf_k", "30.5"}}, opts).ok());
  EXPECT_EQ(opts.rrf_k, 30.5);
  ASSERT_TRUE(parse({{"collapse", "0.9"}}, opts).ok());
  EXPECT_EQ(opts.collapse_cosine, 0.9);
  ASSERT_TRUE(parse({{"collapse", "1"}}, opts).ok());
  EXPECT_EQ(opts.collapse_cosine, 1.0);
  ASSERT_TRUE(parse({{"facets", "5"}}, opts).ok());
  EXPECT_EQ(opts.facets, 5u);
  // Whatever the parser accepts, the library accepts.
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(SearchKnobs, InvalidValuesOfEveryRow) {
  const struct {
    const char* name;
    std::vector<std::string> values;
    std::string message;
  } rows[] = {
      {"exact", {"2", "yes", "01", "-1"}, "exact must be 0 or 1"},
      {"nprobe",
       {"0", "abc", "-1", "+3", "1.5", "3x", "99999999999999999999999"},
       "nprobe must be a positive integer"},
      {"recall",
       {"0", "-0.5", "1.5", "1.0000001", "x", "nan", "inf", "1e400", "0.5x"},
       "recall must be a number in (0, 1]"},
      {"deadline_ms",
       {"0", "-5", "abc", std::to_string(kMaxDeadlineMs + 1),
        "99999999999999999999"},
       "deadline_ms must be a positive integer of at most 86400000 (one "
       "day)"},
      {"merge", {"bogus", "COSINE", "1"},
       "merge must be one of cosine, zscore, rrf"},
      {"rrf_k", {"0", "-1", "inf", "-inf", "nan", "1e400", "k"},
       "rrf_k must be a positive finite number"},
      {"collapse", {"0", "-0.5", "1.5", "nan", "inf", "c"},
       "collapse must be a cosine threshold in (0, 1]"},
      {"facets", {"0", "-1", "2.5", "many"},
       "facets must be a positive integer"},
  };
  for (const auto& row : rows) {
    for (const std::string& value : row.values) {
      EXPECT_EQ(error_of({{row.name, value}}), row.message)
          << row.name << "=" << value;
    }
  }
}

TEST(SearchKnobs, CrossFieldRules) {
  EXPECT_EQ(error_of({{"exact", "1"}, {"nprobe", "3"}}),
            "nprobe cannot be combined with exact=1");
  EXPECT_EQ(error_of({{"exact", "1"}, {"recall", "0.9"}}),
            "recall cannot be combined with exact=1");
  EXPECT_EQ(error_of({{"nprobe", "3"}, {"recall", "0.9"}}),
            "nprobe and recall are mutually exclusive; pass one");
  // exact=0 is the default mode and combines with either.
  EXPECT_EQ(error_of({{"exact", "0"}, {"nprobe", "3"}}), "");
  EXPECT_EQ(error_of({{"exact", "0"}, {"recall", "0.9"}}), "");

  // Precedence: the exact value first, then the cross-field rules (on
  // presence alone), then each value in table order.
  EXPECT_EQ(error_of({{"exact", "2"}, {"nprobe", "3"}, {"recall", "0.9"}}),
            "exact must be 0 or 1");
  EXPECT_EQ(error_of({{"exact", "1"}, {"nprobe", "0"}, {"recall", "0.9"}}),
            "nprobe cannot be combined with exact=1");
  EXPECT_EQ(error_of({{"nprobe", "0"}, {"recall", "x"}}),
            "nprobe and recall are mutually exclusive; pass one");
  EXPECT_EQ(error_of({{"recall", "x"}, {"deadline_ms", "0"}}),
            "recall must be a number in (0, 1]");
  EXPECT_EQ(error_of({{"deadline_ms", "0"}, {"merge", "x"}, {"facets", "0"}}),
            "deadline_ms must be a positive integer of at most 86400000 (one "
            "day)");
  EXPECT_EQ(error_of({{"rrf_k", "0"}, {"collapse", "2"}, {"facets", "0"}}),
            "rrf_k must be a positive finite number");
}

TEST(SearchKnobs, SessionKeyCoversEveryRankingKnobButNotTheDeadline) {
  const std::string base = search_knobs_key(lookup_in({}));
  EXPECT_EQ(search_knobs_key(lookup_in({{"deadline_ms", "500"}})), base);
  for (const std::string_view name : kSearchKnobs) {
    if (name == "deadline_ms") continue;
    const Params p = {{std::string(name), "1"}};
    EXPECT_NE(search_knobs_key(lookup_in(p)), base) << name;
  }
  // Values stay distinguishable across neighbouring knobs.
  EXPECT_NE(search_knobs_key(lookup_in({{"nprobe", "1"}, {"recall", ""}})),
            search_knobs_key(lookup_in({{"recall", "1"}})));
}

}  // namespace
