// util::JsonWriter: separators for every nesting shape, every value
// overload, doubles that read back bit for bit, and a stats document whose
// numbers survive the trip exactly.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "obs/export.hpp"
#include "obs/schema.hpp"
#include "util/json.hpp"

namespace {

using lsi::util::JsonWriter;

std::string written(double v) {
  JsonWriter json;
  json.value(v);
  return std::move(json).take();
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(JsonWriter, SeparatorsForEmptyAndNestedContainers) {
  {
    JsonWriter json;
    EXPECT_EQ(std::move(json.begin_object().end_object()).take(), "{}");
  }
  {
    JsonWriter json;
    EXPECT_EQ(std::move(json.begin_array().end_array()).take(), "[]");
  }
  JsonWriter json;
  json.begin_object()
      .key("a").begin_array().end_array()
      .key("b").begin_object().end_object()
      .key("c").begin_array()
          .begin_array().value(1).value(2).end_array()
          .begin_object().key("d").value(3).key("e").begin_array().end_array()
          .end_object()
          .value("x")
          .end_array()
      .key("f").value(false)
      .end_object();
  const std::string text = std::move(json).take();
  EXPECT_EQ(text,
            R"({"a":[],"b":{},"c":[[1,2],{"d":3,"e":[]},"x"],"f":false})");
  EXPECT_TRUE(lsi::obs::validate_json(text).ok());
}

TEST(JsonWriter, EveryValueOverload) {
  JsonWriter json;
  json.begin_array()
      .value(std::string_view("sv"))
      .value("literal")
      .value(std::string("str"))
      .value(true)
      .value(false)
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(0u)
      .value(-7)
      .value(static_cast<unsigned char>(200))
      .value(static_cast<short>(-3))
      .value(0.25)
      .value(std::size_t{42})
      .end_array();
  EXPECT_EQ(std::move(json).take(),
            R"(["sv","literal","str",true,false,18446744073709551615,)"
            R"(-9223372036854775808,0,-7,200,-3,0.25,42])");
}

TEST(JsonWriter, StringsAndKeysAreEscaped) {
  JsonWriter json;
  json.begin_object().key("q\"k").value("a\\b\n\x01\xff").end_object();
  const std::string text = std::move(json).take();
  EXPECT_EQ(text, R"({"q\"k":"a\\b\n\u0001\ufffd"})");
  EXPECT_TRUE(lsi::obs::validate_json(text).ok());
}

TEST(JsonWriter, DoublesReadBackBitForBit) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.5,
                          0.1,
                          1.0 / 3.0,
                          DBL_MAX,
                          -DBL_MAX,
                          DBL_MIN,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          2.2250738585072009e-308,  // largest subnormal
                          1e21,
                          123456789012345678.0};
  for (const double v : cases) {
    const std::string text = written(v);
    EXPECT_EQ(bits(std::strtod(text.c_str(), nullptr)), bits(v)) << text;
  }
  EXPECT_EQ(written(-0.0), "-0");

  std::mt19937_64 rng(20261018);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t pattern = rng();
    double v;
    std::memcpy(&v, &pattern, sizeof v);
    if (!std::isfinite(v)) continue;
    const std::string text = written(v);
    ASSERT_EQ(bits(std::strtod(text.c_str(), nullptr)), pattern) << text;
  }
}

TEST(JsonWriter, NonFiniteDoublesAreZero) {
  EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(written(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonWriter, StatsDocumentKeepsNumbersExact) {
  lsi::obs::StatsDoc doc;
  doc.name = "exact";
  doc.gauges.emplace_back("concurrent.publish_bytes", 2912345.0);
  doc.gauges.emplace_back("ratio", 1.0 / 3.0);
  doc.counters.emplace_back("big", std::uint64_t{9007199254740993});  // 2^53+1
  const std::string text = lsi::obs::to_json(doc);
  ASSERT_TRUE(lsi::obs::validate_stats_json(text).ok()) << text;
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find('\n'), text.size() - 1) << "one compact line";
  EXPECT_NE(text.find("\"concurrent.publish_bytes\":2912345,"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"ratio\":0.3333333333333333}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"big\":9007199254740993}"), std::string::npos)
      << text;
}

}  // namespace
