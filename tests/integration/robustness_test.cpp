// Failure-injection and hostile-input tests across modules: truncated
// database streams, binary garbage into the parser, extreme numerics into
// the SVD solvers. Nothing here may crash, hang, or silently corrupt.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "data/med_topics.hpp"
#include "support/jacobi_svd.hpp"
#include "la/lanczos.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"
#include "text/parser.hpp"

namespace {

using namespace lsi;

core::LsiDatabase sample_database() {
  core::IndexOptions opts;
  opts.parser.min_document_frequency = 2;
  opts.parser.fold_plurals = true;
  opts.k = 3;
  auto index = core::LsiIndex::try_build(data::med_topics(), opts).value();
  return {index.space(), index.vocabulary(), index.doc_labels(),
          index.options().scheme, index.global_weights()};
}

TEST(Robustness, DatabaseTruncationSweepAlwaysThrows) {
  std::stringstream buffer;
  core::try_save_database(buffer, sample_database()).or_throw();
  const std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 64u);

  // Truncate at a spread of lengths including every boundary-ish point.
  for (std::size_t len = 0; len < bytes.size();
       len += std::max<std::size_t>(1, bytes.size() / 97)) {
    std::stringstream truncated(bytes.substr(0, len));
    EXPECT_THROW((void)core::try_load_database(truncated).value(), std::runtime_error)
        << "silently accepted a stream truncated at " << len;
  }
  // The complete stream still loads.
  std::stringstream whole(bytes);
  EXPECT_NO_THROW((void)core::try_load_database(whole).value());
}

TEST(Robustness, DatabaseBitFlipInHeaderRejected) {
  std::stringstream buffer;
  core::try_save_database(buffer, sample_database()).or_throw();
  std::string bytes = buffer.str();
  bytes[0] ^= 0x5a;  // corrupt the magic
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)core::try_load_database(corrupted).value(), std::runtime_error);
}

TEST(Robustness, ParserSurvivesBinaryGarbage) {
  std::string garbage;
  for (int i = 0; i < 4096; ++i) {
    garbage += static_cast<char>((i * 73 + 11) % 256);
  }
  text::Collection docs = {{"bin", garbage}, {"ok", "normal words here"}};
  auto tdm = text::build_term_document_matrix(docs, {});
  EXPECT_EQ(tdm.counts.cols(), 2u);
  // The normal document's terms still index.
  EXPECT_TRUE(tdm.vocabulary.find("normal").has_value());
}

TEST(Robustness, ParserSurvivesPathologicalTokens) {
  std::string huge_token(100000, 'a');
  text::Collection docs = {{"A", huge_token + " regular"},
                           {"B", std::string(5000, ' ') + "regular"}};
  auto tdm = text::build_term_document_matrix(docs, {});
  EXPECT_TRUE(tdm.vocabulary.find("regular").has_value());
  EXPECT_TRUE(tdm.vocabulary.find(huge_token).has_value());
}

TEST(Robustness, EmptyQueryOnRealIndex) {
  core::IndexOptions opts;
  opts.k = 2;
  auto index = core::LsiIndex::try_build(data::med_topics(), opts).value();
  auto results = index.query("");
  // All-zero projection: every cosine is 0; nothing may crash.
  for (const auto& r : results) EXPECT_DOUBLE_EQ(r.cosine, 0.0);
  EXPECT_TRUE(index.query("zzz qqq xxx", {}).size() <= 14u);
}

TEST(Robustness, JacobiExtremeScales) {
  // Entries spanning 1e-150 .. 1e150 must not overflow the rotations.
  la::DenseMatrix a(3, 3);
  a(0, 0) = 1e150;
  a(1, 1) = 1.0;
  a(2, 2) = 1e-150;
  auto s = la::jacobi_svd(a);
  EXPECT_NEAR(s.s[0] / 1e150, 1.0, 1e-12);
  EXPECT_NEAR(s.s[1], 1.0, 1e-12);
}

TEST(Robustness, JacobiDuplicateColumns) {
  la::DenseMatrix a(5, 4);
  for (la::index_t i = 0; i < 5; ++i) {
    const double v = std::sin(i + 1.0);
    for (la::index_t j = 0; j < 4; ++j) a(i, j) = v;  // rank 1
  }
  auto s = la::jacobi_svd(a);
  EXPECT_GT(s.s[0], 0.0);
  for (std::size_t i = 1; i < s.s.size(); ++i) EXPECT_NEAR(s.s[i], 0.0, 1e-9);
}

TEST(Robustness, LanczosConstantMatrix) {
  // All-equal entries: rank 1 with a huge null space; the restart logic
  // must terminate.
  la::CooBuilder b(30, 20);
  for (la::index_t i = 0; i < 30; ++i) {
    for (la::index_t j = 0; j < 20; ++j) b.add(i, j, 2.0);
  }
  la::LanczosOptions opts;
  opts.k = 5;
  auto s = la::lanczos_svd(b.to_csc(), opts);
  EXPECT_NEAR(s.s[0], 2.0 * std::sqrt(30.0 * 20.0), 1e-8);
  for (std::size_t i = 1; i < s.s.size(); ++i) EXPECT_NEAR(s.s[i], 0.0, 1e-7);
}

TEST(Robustness, LanczosSingleColumn) {
  la::CooBuilder b(40, 1);
  for (la::index_t i = 0; i < 40; ++i) b.add(i, 0, 1.0 + i);
  la::LanczosOptions opts;
  opts.k = 1;
  auto s = la::lanczos_svd(b.to_csc(), opts);
  double expect = 0.0;
  for (la::index_t i = 0; i < 40; ++i) expect += (1.0 + i) * (1.0 + i);
  EXPECT_NEAR(s.s[0], std::sqrt(expect), 1e-9);
}

TEST(Robustness, IndexWithOneDocument) {
  core::IndexOptions opts;
  opts.k = 5;
  auto index = core::LsiIndex::try_build({{"only", "solitary document text"}},
                                     opts).value();
  EXPECT_EQ(index.space().num_docs(), 1u);
  auto results = index.query("solitary");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].cosine, 0.9);
}

TEST(Robustness, IndexWithIdenticalDocuments) {
  text::Collection docs(6, {"dup", "same words every time"});
  for (std::size_t i = 0; i < docs.size(); ++i) {
    std::string label = "D";
    label += std::to_string(i);
    docs[i].label = std::move(label);
  }
  core::IndexOptions opts;
  opts.k = 3;
  auto index = core::LsiIndex::try_build(docs, opts).value();
  auto results = index.query("same words");
  EXPECT_EQ(results.size(), 6u);
  for (const auto& r : results) EXPECT_NEAR(r.cosine, results[0].cosine, 1e-9);
}

}  // namespace
