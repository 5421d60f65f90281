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

#include <cstdint>
#include <fstream>
#include <limits>
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

// ---------------------------------------------------------------------------
// Hand-made headers: shapes and values the loader must refuse.
// ---------------------------------------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_matrix(std::string& out, std::uint64_t rows, std::uint64_t cols,
                double fill) {
  put_u64(out, rows);
  put_u64(out, cols);
  for (std::uint64_t i = 0; i < rows * cols; ++i) put_f64(out, fill);
}

void put_strings(std::string& out, std::uint64_t count) {
  put_u64(out, count);
  for (std::uint64_t i = 0; i < count; ++i) {
    put_u64(out, 1);
    out.push_back(static_cast<char>('a' + i % 26));
  }
}

constexpr std::uint64_t kMagic = 0x4C534932;  // "LSI2"

/// A whole database: U (u_rows x u_cols), `sigma`, V (v_rows x v_cols),
/// `terms` terms, `labels` labels, raw weighting, no global weights.
std::string database_bytes(std::uint64_t u_rows, std::uint64_t u_cols,
                           const std::vector<double>& sigma,
                           std::uint64_t v_rows, std::uint64_t v_cols,
                           std::uint64_t terms, std::uint64_t labels,
                           double v_fill = 0.5) {
  std::string out;
  put_u64(out, kMagic);
  put_matrix(out, u_rows, u_cols, 0.25);
  put_u64(out, sigma.size());
  for (const double x : sigma) put_f64(out, x);
  put_matrix(out, v_rows, v_cols, v_fill);
  put_strings(out, terms);
  put_strings(out, labels);
  put_u64(out, 0);  // local weight
  put_u64(out, 0);  // global weight
  put_u64(out, 0);  // no global weights
  return out;
}

StatusCode load_code(const std::string& bytes) {
  std::istringstream in(bytes);
  return core::try_load_database(in).status().code();
}

TEST(IoGolden, WellFormedHandMadeDatabaseLoads) {
  EXPECT_EQ(load_code(database_bytes(2, 2, {2.0, 1.0}, 3, 2, 2, 3)),
            StatusCode::kOk);
}

TEST(IoGolden, WrappedMatrixShapeFailsWithDataLoss) {
  // U declared 2^32 x 2^32: the entry count wraps to 0 in 64 bits.
  std::string bytes;
  put_u64(bytes, kMagic);
  put_u64(bytes, 1ULL << 32);
  put_u64(bytes, 1ULL << 32);
  bytes.resize(96, '\0');
  EXPECT_EQ(load_code(bytes), StatusCode::kDataLoss);
}

TEST(IoGolden, MismatchedShapesFailWithDataLoss) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A 2 x 1 U, three sigma entries (one NaN) and a 2 x 2 V.
  EXPECT_EQ(load_code(database_bytes(2, 1, {2.0, nan, 1.0}, 2, 2, 2, 2)),
            StatusCode::kDataLoss);
  // One shape off at a time.
  EXPECT_EQ(load_code(database_bytes(2, 2, {2.0, 1.0}, 3, 1, 2, 3)),
            StatusCode::kDataLoss);  // V's columns
  EXPECT_EQ(load_code(database_bytes(2, 2, {2.0, 1.0}, 3, 2, 5, 3)),
            StatusCode::kDataLoss);  // vocabulary vs U's rows
  EXPECT_EQ(load_code(database_bytes(2, 2, {2.0, 1.0}, 3, 2, 2, 4)),
            StatusCode::kDataLoss);  // labels vs V's rows
}

TEST(IoGolden, NonFiniteFactorsFailWithDataLoss) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(load_code(database_bytes(2, 2, {2.0, nan}, 3, 2, 2, 3)),
            StatusCode::kDataLoss);
  EXPECT_EQ(load_code(database_bytes(2, 2, {2.0, 1.0}, 3, 2, 2, 3, inf)),
            StatusCode::kDataLoss);
  std::string bytes = database_bytes(2, 2, {2.0, 1.0}, 3, 2, 2, 3);
  const double bad = -inf;
  bytes.replace(24, sizeof bad, reinterpret_cast<const char*>(&bad),
                sizeof bad);  // U(0, 0)
  EXPECT_EQ(load_code(bytes), StatusCode::kDataLoss);
}

TEST(IoGolden, CountsBeyondTheStreamFailWithDataLoss) {
  std::string bytes;
  put_u64(bytes, kMagic);
  put_matrix(bytes, 2, 2, 0.25);
  put_u64(bytes, 1ULL << 40);  // sigma entries
  EXPECT_EQ(load_code(bytes), StatusCode::kDataLoss);

  bytes = database_bytes(2, 2, {2.0, 1.0}, 3, 2, 2, 3);
  // The label count sits after the two one-letter terms (9 bytes each).
  const std::size_t at = 8 + 16 + 32 + 8 + 16 + 16 + 48 + 8 + 18;
  const std::uint64_t huge = 1ULL << 40;
  bytes.replace(at, sizeof huge, reinterpret_cast<const char*>(&huge),
                sizeof huge);
  EXPECT_EQ(load_code(bytes), StatusCode::kDataLoss);
}

}  // namespace
