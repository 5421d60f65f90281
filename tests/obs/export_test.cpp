// Exporter and schema tests: a populated sink rendered as JSON must satisfy
// the lsi.stats.v1 validator (the exact round-trip CI performs on every
// BENCH_<name>.json), CSV output must carry the same sections, and the
// validator must reject the malformed shapes it exists to catch.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/schema.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lsi;

/// A sink exercised the way a pipeline run exercises it.
obs::StatsDoc example_doc() {
  static obs::Sink sink;
  static bool populated = false;
  if (!populated) {
    populated = true;
    obs::ScopedSink scoped(&sink);
    {
      LSI_OBS_SPAN(outer, "build");
      LSI_OBS_SPAN(inner, "build.svd");
    }
    obs::count("lanczos.steps", 42);
    obs::gauge("lanczos.max_residual", 1e-12);
  }
  obs::StatsDoc doc = obs::StatsDoc::from_sink("export_test", sink);
  doc.params.emplace_back("k", 100.0);
  doc.params.emplace_back("quick", 0.0);
  doc.flops.push_back({"lanczos.svd", 1000, 1100});
  return doc;
}

TEST(Export, JsonRoundTripSatisfiesTheValidator) {
  const std::string json = obs::to_json(example_doc());
  const auto status = obs::validate_stats_json(json);
  EXPECT_TRUE(status.ok()) << status.to_string() << "\n" << json;
}

TEST(Export, JsonCarriesEverySection) {
  const std::string json = obs::to_json(example_doc());
  EXPECT_NE(json.find("\"schema\":\"lsi.stats.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export_test\""), std::string::npos);
  EXPECT_NE(json.find("\"lanczos.steps\":42"), std::string::npos);
  EXPECT_NE(json.find("lanczos.max_residual"), std::string::npos);
  EXPECT_NE(json.find("\"build.svd\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"measured\":1100"), std::string::npos);
}

TEST(Export, CsvCarriesEverySection) {
  std::ostringstream os;
  obs::write_csv(os, example_doc());
  const std::string csv = os.str();
  for (const char* needle :
       {"lanczos.steps", "lanczos.max_residual", "build.svd", "lanczos.svd",
        "k", "42"}) {
    EXPECT_NE(csv.find(needle), std::string::npos) << needle << "\n" << csv;
  }
}

TEST(Export, EmptySinkStillValidates) {
  obs::Sink sink;
  const auto doc = obs::StatsDoc::from_sink("empty", sink);
  EXPECT_TRUE(obs::validate_stats_json(obs::to_json(doc)).ok());
}

TEST(Schema, RejectsMalformedDocuments) {
  const struct {
    const char* label;
    const char* text;
  } cases[] = {
      {"not json at all", "BENCH output garbage"},
      {"truncated", R"({"schema": "lsi.stats.v1", "name": "x")"},
      {"wrong schema tag", R"({"schema": "lsi.stats.v2", "name": "x"})"},
      {"missing name", R"({"schema": "lsi.stats.v1"})"},
      {"non-numeric param",
       R"({"schema": "lsi.stats.v1", "name": "x", "params": {"k": "hi"}})"},
      {"negative counter",
       R"({"schema": "lsi.stats.v1", "name": "x", "counters": {"c": -1}})"},
      {"span missing percentiles",
       R"({"schema": "lsi.stats.v1", "name": "x",
           "spans": [{"name": "s", "count": 1}]})"},
      {"flops row missing measured",
       R"({"schema": "lsi.stats.v1", "name": "x",
           "flops": [{"name": "f", "predicted": 10}]})"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(obs::validate_stats_json(c.text).ok()) << c.label;
  }
}

TEST(Schema, AcceptsMinimalDocument) {
  EXPECT_TRUE(obs::validate_stats_json(
                  R"({"schema": "lsi.stats.v1", "name": "minimal"})")
                  .ok());
}

TEST(SearchSchema, AcceptsTheOneShapeAndRejectsDrift) {
  const char* hit =
      R"({"doc":3,"label":"D3","score":0.9,"cosine":0.9,"shard":1,)"
      R"("duplicates":[7]})";
  const std::string plain = std::string(R"({"results":[)") + hit +
                            R"(],"facets":[{"term":"t","weight":0.5}],)"
                            R"("generations":[1,1]})";
  EXPECT_TRUE(obs::validate_search_json(plain, false).ok());
  EXPECT_FALSE(obs::validate_search_json(plain, true).ok())
      << "a session body needs its paging fields";
  const std::string paged =
      plain.substr(0, plain.size() - 1) +
      R"(,"session":"s1","cursor":1,"total":4,"more":true})";
  EXPECT_TRUE(obs::validate_search_json(paged, true).ok());
  EXPECT_FALSE(obs::validate_search_json(paged, false).ok())
      << "paging fields outside a session are drift";

  const struct {
    const char* label;
    const char* text;
  } drifted[] = {
      {"not json", "{"},
      {"missing facets", R"({"results":[],"generations":[]})"},
      {"hit without label",
       R"({"results":[{"doc":3,"score":0.9,"cosine":0.9,"shard":1,)"
       R"("duplicates":[]}],"facets":[],"generations":[]})"},
      {"hit with an extra key",
       R"({"results":[{"doc":3,"label":"D3","score":0.9,"cosine":0.9,)"
       R"("shard":1,"duplicates":[],"rank":1}],"facets":[],)"
       R"("generations":[]})"},
      {"string score",
       R"({"results":[{"doc":3,"label":"D3","score":"0.9","cosine":0.9,)"
       R"("shard":1,"duplicates":[]}],"facets":[],"generations":[]})"},
      {"facet without weight",
       R"({"results":[],"facets":[{"term":"t"}],"generations":[]})"},
      {"non-numeric generation",
       R"({"results":[],"facets":[],"generations":["1"]})"},
  };
  for (const auto& c : drifted) {
    EXPECT_FALSE(obs::validate_search_json(c.text, false).ok()) << c.label;
  }
}

}  // namespace
