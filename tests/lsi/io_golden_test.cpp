// Golden-file regression test for the persistence format: a database built
// once (tests/data/README.md records how) and committed as
// tests/data/golden_k5.lsidb must keep loading, must survive a
// load -> save round trip byte for byte, and must keep producing the same
// top-10 ranking for a fixed query. Any change to the binary format, the
// float encoding, or the retrieval math that breaks compatibility with
// shipped databases fails here first.
//
// If the format version is bumped *intentionally*, regenerate the fixture
// (see tests/data/README.md) and update the constants below in the same
// commit — that diff is the reviewable statement "this PR breaks database
// compatibility".

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lsi/concurrent.hpp"
#include "lsi/io.hpp"
#include "lsi/retrieval.hpp"

namespace {

using namespace lsi;

constexpr const char* kFixture = LSI_TEST_DATA_DIR "/golden_k5.lsidb";

// The fixed query and its expected ranking over the fixture database.
constexpr const char* kGoldenQuery = "w0f0 w3f2 w4f1 w5f2 w1f0";
struct GoldenHit {
  const char* label;
  double cosine;
};
constexpr GoldenHit kGoldenTop10[] = {
    {"D6", 0.9944549806254531},  {"D11", 0.9936944766436764},
    {"D5", 0.9905035612220732},  {"D8", 0.9893534664692869},
    {"D1", 0.9869792882136037},  {"D2", 0.9854356736096550},
    {"D7", 0.9847863636920019},  {"D10", 0.9822595232441116},
    {"D3", 0.9767941498402996},  {"D9", 0.9739770750712671},
};

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(IoGolden, FixtureLoadsWithExpectedShape) {
  auto db = core::try_load_database_file(kFixture).value();
  EXPECT_EQ(db.space.k(), 5u);
  EXPECT_EQ(db.space.num_terms(), 144u);
  EXPECT_EQ(db.space.num_docs(), 36u);
  EXPECT_EQ(db.vocabulary.size(), 144u);
  ASSERT_EQ(db.doc_labels.size(), 36u);
  EXPECT_EQ(db.doc_labels.front(), "D0");
  EXPECT_EQ(db.doc_labels.back(), "D35");
  EXPECT_EQ(db.global_weights.size(), 144u);
}

TEST(IoGolden, RoundTripIsByteForByteIdentical) {
  const std::string golden = read_file_bytes(kFixture);
  ASSERT_FALSE(golden.empty());

  std::istringstream in(golden);
  auto db = core::try_load_database(in).value();

  std::ostringstream out;
  ASSERT_TRUE(core::try_save_database(out, db).ok());
  const std::string resaved = out.str();
  ASSERT_EQ(resaved.size(), golden.size());
  EXPECT_TRUE(resaved == golden) << "save(load(x)) != x";

  // Second generation too: the format is a fixed point of load/save.
  std::istringstream in2(resaved);
  auto db2 = core::try_load_database(in2).value();
  std::ostringstream out2;
  ASSERT_TRUE(core::try_save_database(out2, db2).ok());
  EXPECT_TRUE(out2.str() == golden);
}

TEST(IoGolden, KnownQueryKeepsItsTop10) {
  auto db = core::try_load_database_file(kFixture).value();

  // Weight the query exactly like a serving process would after reload: the
  // database carries the scheme and per-term global weights.
  const core::SnapshotQueryContext ctx(db.vocabulary, text::ParserOptions{},
                                       db.scheme, db.global_weights);
  const la::Vector w = ctx.weighted_term_vector(kGoldenQuery);

  core::SearchOptions opts;
  opts.z = 10;
  const auto hits = core::retrieve(db.space, w, opts);
  ASSERT_EQ(hits.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(db.doc_labels[hits[i].doc], kGoldenTop10[i].label)
        << "rank " << i;
    EXPECT_NEAR(hits[i].cosine, kGoldenTop10[i].cosine, 1e-9) << "rank " << i;
  }
}

TEST(IoGolden, TruncatedFixtureFailsWithDataLoss) {
  const std::string golden = read_file_bytes(kFixture);
  std::istringstream in(golden.substr(0, golden.size() / 2));
  auto result = core::try_load_database(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

}  // namespace
