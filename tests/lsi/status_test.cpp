// lsi::Status / lsi::Expected semantics and their propagation through the
// canonical entry points: try_build_semantic_space, LsiIndex::try_build,
// IndexOptions::Validate, and the io layer.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "data/med_topics.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/status.hpp"

namespace {

using namespace lsi;

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
  EXPECT_NO_THROW(s.or_throw());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const auto s = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "k must be positive");
  EXPECT_EQ(s.to_string(), "invalid-argument: k must be positive");
  EXPECT_THROW(s.or_throw(), std::runtime_error);
}

TEST(Status, ResourceExhaustedNamesItself) {
  const auto s = Status::ResourceExhausted("ingest queue full (capacity 8)");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.to_string(),
            "resource-exhausted: ingest queue full (capacity 8)");
}

TEST(Expected, HoldsValueOrStatus) {
  Expected<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(-1), 7);

  Expected<int> bad(Status::NotFound("no such thing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(TryBuildSemanticSpace, EmptyMatrixIsInvalidArgument) {
  const auto result = core::try_build_semantic_space(la::CscMatrix(), 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("empty"), std::string::npos);
}

TEST(TryBuildSemanticSpace, ZeroKIsInvalidArgument) {
  const auto result = core::try_build_semantic_space(data::table3_counts(), 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TryBuildSemanticSpace, OversizedKClampsToRankBound) {
  // k beyond min(m, n) is not an error: the factor count clamps to the
  // rank bound, the documented (and historical) behavior.
  const auto result = core::try_build_semantic_space(data::table3_counts(), 99);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->k(), 14u);
}

TEST(IndexOptionsValidate, CatchesBadFields) {
  core::IndexOptions opts;
  EXPECT_TRUE(opts.Validate().ok());

  opts.k = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.k = 2;

  opts.build.lanczos.tol = 0.0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.build.lanczos.tol = 1e-10;

  opts.parser.min_document_frequency = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(LsiIndexTryBuild, EmptyCollectionIsInvalidArgument) {
  const auto result = core::LsiIndex::try_build(text::Collection{}, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LsiIndexTryBuild, InvalidOptionsAreRejectedBeforeAnyWork) {
  core::IndexOptions opts;
  opts.k = 0;
  const auto result = core::LsiIndex::try_build(data::med_topics(), opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LsiIndexTryBuild, SucceedsOnThePaperExample) {
  core::IndexOptions opts;
  opts.parser.min_document_frequency = 2;
  opts.k = 2;
  const auto result = core::LsiIndex::try_build(data::med_topics(), opts);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->space().k(), 2u);
}

TEST(Io, TruncatedStreamIsDataLoss) {
  std::istringstream garbage("not an lsi database");
  const auto result = core::try_load_database(garbage);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(Io, MissingFileIsNotFound) {
  const auto result =
      core::try_load_database_file("/nonexistent/dir/lsi.db");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(Io, RoundTripThroughTheStatusApi) {
  core::IndexOptions opts;
  opts.parser.min_document_frequency = 2;
  opts.k = 2;
  const auto index = core::LsiIndex::try_build(data::med_topics(), opts).value();
  core::LsiDatabase db;
  db.space = index.space();
  db.vocabulary = index.vocabulary();
  db.doc_labels = index.doc_labels();
  std::stringstream buffer;
  ASSERT_TRUE(core::try_save_database(buffer, db).ok());
  const auto loaded = core::try_load_database(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->vocabulary.size(), db.vocabulary.size());
  EXPECT_EQ(loaded->space.k(), 2u);
}

}  // namespace
