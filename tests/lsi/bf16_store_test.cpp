// bf16 document-store tests (lsi/doc_store.hpp, docs/KERNELS.md):
// encode/decode round-trip properties, store build/extend determinism, the
// norm-cache consistency contract after extend_doc_norms, and the .lsidb
// serialization regression — a compressed database round-trips byte for
// byte, and an uncompressed database's byte stream is untouched by the
// feature.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "data/med_topics.hpp"
#include "la/kernels.hpp"
#include "lsi/doc_store.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/semantic_space.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi;
using core::Bf16DocStore;
using core::SemanticSpace;
using core::SimilarityMode;
using la::kern::bf16_from_f32;
using la::kern::bf16_from_f64;
using la::kern::bf16_to_f32;

SemanticSpace random_space(la::index_t n, la::index_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  la::DenseMatrix u(4, k), v(n, k);
  std::vector<double> sigma(k);
  for (la::index_t i = 0; i < k; ++i) {
    sigma[i] = 2.0 / (1.0 + static_cast<double>(i));
    for (la::index_t j = 0; j < n; ++j) v(j, i) = rng.normal();
    for (la::index_t j = 0; j < 4; ++j) u(j, i) = rng.normal();
  }
  SemanticSpace space;
  space.u = std::move(u);
  space.v = v;
  space.sigma = std::move(sigma);
  return space;
}

// --- encode/decode properties -----------------------------------------------

TEST(Bf16Codec, ExactValuesRoundTrip) {
  // Powers of two and short-mantissa values are exactly representable.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -1024.0f, 0.09375f}) {
    EXPECT_EQ(bf16_to_f32(bf16_from_f32(v)), v);
  }
}

TEST(Bf16Codec, RelativeErrorBounded) {
  // bf16 stores 7 mantissa bits (8 significand bits with the implicit 1):
  // round-to-nearest is within a half-ULP, i.e. 2^-8 relative.
  util::Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal() * std::pow(10.0, rng.uniform(-6.0, 6.0));
    const double back = static_cast<double>(bf16_to_f32(bf16_from_f64(x)));
    EXPECT_LE(std::abs(back - x), std::abs(x) * (1.0 / 256.0) + 1e-300)
        << "x=" << x;
  }
}

TEST(Bf16Codec, EncodeIsMonotone) {
  // Monotone non-decreasing decode over increasing input: sampled ascending
  // doubles across signs and magnitudes must never decode out of order.
  std::vector<double> xs;
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.normal() * std::pow(10.0, rng.uniform(-4.0, 4.0)));
  }
  std::sort(xs.begin(), xs.end());
  float prev = -std::numeric_limits<float>::infinity();
  for (const double x : xs) {
    const float d = bf16_to_f32(bf16_from_f64(x));
    EXPECT_LE(prev, d) << "x=" << x;
    prev = d;
  }
}

TEST(Bf16Codec, RoundsToNearestEven) {
  // The bf16 ULP at 1.0 is 2^-7 (7 stored mantissa bits). 1 + 2^-8 sits
  // exactly between neighbors 1.0 and 1 + 2^-7; ties go to the even
  // mantissa (1.0). Nudged above the tie it must round up.
  EXPECT_EQ(bf16_to_f32(bf16_from_f32(1.0f + 0x1.0p-8f)), 1.0f);
  EXPECT_EQ(bf16_to_f32(bf16_from_f32(1.0f + 0x1.1p-8f)), 1.0f + 0x1.0p-7f);
  // 1 + 3*2^-8 ties between 1 + 2^-7 and 1 + 2^-6: even is 1 + 2^-6.
  EXPECT_EQ(bf16_to_f32(bf16_from_f32(1.0f + 0x3.0p-8f)), 1.0f + 0x1.0p-6f);
}

TEST(Bf16Codec, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_f32(bf16_from_f32(inf)), inf);
  EXPECT_EQ(bf16_to_f32(bf16_from_f32(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      bf16_to_f32(bf16_from_f32(std::numeric_limits<float>::quiet_NaN()))));
  // Signed zero survives.
  EXPECT_EQ(bf16_from_f32(-0.0f), 0x8000u);
}

// --- store build ------------------------------------------------------------

TEST(Bf16Store, BuildEncodesEveryEntryCanonically) {
  const auto space = random_space(23, 5, 11);
  const auto store = Bf16DocStore::build(space);
  ASSERT_EQ(store->num_docs(), space.num_docs());
  ASSERT_EQ(store->k(), space.k());
  for (la::index_t i = 0; i < space.k(); ++i) {
    for (la::index_t j = 0; j < space.num_docs(); ++j) {
      ASSERT_EQ(store->word(j, i), bf16_from_f64(space.v(j, i)))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(Bf16Store, NormsAreDecodedValueNorms) {
  const auto space = random_space(17, 4, 12);
  const auto store = Bf16DocStore::build(space);
  for (const auto mode : {SimilarityMode::kColumnSpace,
                          SimilarityMode::kProjected, SimilarityMode::kPlainV}) {
    const auto norms = store->doc_norms(mode);
    ASSERT_EQ(norms.size(), static_cast<std::size_t>(space.num_docs()));
    const bool scaled = mode != SimilarityMode::kPlainV;
    for (la::index_t j = 0; j < space.num_docs(); ++j) {
      la::Vector doc(space.k());
      for (la::index_t i = 0; i < space.k(); ++i) {
        doc[i] = static_cast<double>(bf16_to_f32(store->word(j, i)));
        if (scaled) doc[i] *= space.sigma[i];
      }
      ASSERT_EQ(norms[j], la::norm2(doc)) << "j=" << j;
    }
  }
}

TEST(Bf16Store, BuildIsDeterministic) {
  const auto space = random_space(31, 6, 13);
  const auto a = Bf16DocStore::build(space);
  const auto b = Bf16DocStore::build(space);
  ASSERT_EQ(a->payload().size(), b->payload().size());
  for (std::size_t i = 0; i < a->payload().size(); ++i) {
    ASSERT_EQ(a->payload()[i], b->payload()[i]);
  }
}

// --- extend == fresh build --------------------------------------------------

TEST(Bf16Store, ExtendIsBitIdenticalToFreshBuild) {
  const la::index_t n0 = 19, n = 29, k = 5;
  const auto full = random_space(n, k, 14);
  SemanticSpace head = full;
  // Truncate to the first n0 rows (same columns) to play the pre-append
  // space.
  la::DenseMatrix v0(n0, k);
  for (la::index_t i = 0; i < k; ++i) {
    for (la::index_t j = 0; j < n0; ++j) v0(j, i) = full.v(j, i);
  }
  head.v = std::move(v0);

  const auto old_store = Bf16DocStore::build(head);
  const auto extended = Bf16DocStore::extend(*old_store, full);
  const auto fresh = Bf16DocStore::build(full);

  ASSERT_EQ(extended->payload().size(), fresh->payload().size());
  for (std::size_t i = 0; i < extended->payload().size(); ++i) {
    ASSERT_EQ(extended->payload()[i], fresh->payload()[i]) << "i=" << i;
  }
  for (const auto mode : {SimilarityMode::kColumnSpace,
                          SimilarityMode::kProjected, SimilarityMode::kPlainV}) {
    const auto en = extended->doc_norms(mode);
    const auto fn = fresh->doc_norms(mode);
    ASSERT_EQ(en.size(), fn.size());
    for (std::size_t j = 0; j < en.size(); ++j) {
      ASSERT_EQ(en[j], fn[j]) << "j=" << j;
    }
  }
}

TEST(Bf16Store, SpaceExtendHookKeepsStoreConsistent) {
  // Through the SemanticSpace protocol: enable compression, warm the store,
  // append rows (as folding does), call extend_doc_norms — the store must
  // equal a from-scratch build over the larger space.
  auto space = random_space(21, 4, 15);
  space.set_compress_docs(true);
  ASSERT_NE(space.compressed_docs(), nullptr);

  const la::index_t n0 = space.num_docs();
  const auto tail = random_space(6, 4, 16);
  space.v.append_rows(tail.v.to_dense());
  space.extend_doc_norms(n0);

  const Bf16DocStore* got = space.compressed_docs();
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->num_docs(), space.num_docs());
  const auto fresh = Bf16DocStore::build(space);
  ASSERT_EQ(got->payload().size(), fresh->payload().size());
  for (std::size_t i = 0; i < fresh->payload().size(); ++i) {
    ASSERT_EQ(got->payload()[i], fresh->payload()[i]);
  }
  for (const auto mode : {SimilarityMode::kColumnSpace,
                          SimilarityMode::kProjected, SimilarityMode::kPlainV}) {
    const auto gn = got->doc_norms(mode);
    const auto fn = fresh->doc_norms(mode);
    for (std::size_t j = 0; j < fn.size(); ++j) {
      ASSERT_EQ(gn[j], fn[j]);
    }
  }
}

TEST(Bf16Store, InvalidateDropsStoreButKeepsFlag) {
  auto space = random_space(12, 3, 17);
  space.set_compress_docs(true);
  const Bf16DocStore* first = space.compressed_docs();
  ASSERT_NE(first, nullptr);
  la::DenseMatrix v = space.v.to_dense();
  v(0, 0) += 1.0;  // same-shape mutation
  space.v = v;
  space.invalidate_doc_norms();
  EXPECT_TRUE(space.compress_docs());
  const Bf16DocStore* second = space.compressed_docs();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->word(0, 0), bf16_from_f64(space.v(0, 0)));
}

// --- .lsidb serialization ---------------------------------------------------

core::LsiDatabase build_med_db(bool compressed) {
  core::IndexOptions opts;
  opts.k = 10;
  opts.compress_docs = compressed;
  auto index = core::LsiIndex::try_build(data::med_topics(), opts).value();
  return core::LsiDatabase{index.space(), index.vocabulary(),
                           index.doc_labels(), index.options().scheme,
                           index.global_weights()};
}

TEST(Bf16Io, CompressedDatabaseRoundTripsByteForByte) {
  const auto db = build_med_db(/*compressed=*/true);
  std::ostringstream out;
  ASSERT_TRUE(core::try_save_database(out, db).ok());
  const std::string bytes = out.str();

  std::istringstream in(bytes);
  const auto loaded = core::try_load_database(in).value();
  EXPECT_TRUE(loaded.space.compress_docs());
  const Bf16DocStore* a = db.space.compressed_docs();
  const Bf16DocStore* b = loaded.space.compressed_docs();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->payload().size(), b->payload().size());
  for (std::size_t i = 0; i < a->payload().size(); ++i) {
    ASSERT_EQ(a->payload()[i], b->payload()[i]);
  }
  // Norms are recomputed on load from payload + sigma: identical too.
  for (const auto mode : {SimilarityMode::kColumnSpace,
                          SimilarityMode::kProjected, SimilarityMode::kPlainV}) {
    const auto an = a->doc_norms(mode);
    const auto bn = b->doc_norms(mode);
    for (std::size_t j = 0; j < an.size(); ++j) ASSERT_EQ(an[j], bn[j]);
  }

  // Golden regression: resaving the loaded database reproduces the exact
  // byte stream.
  std::ostringstream out2;
  ASSERT_TRUE(core::try_save_database(out2, loaded).ok());
  EXPECT_EQ(bytes, out2.str());
}

TEST(Bf16Io, UncompressedDatabaseBytesUntouched) {
  const auto plain = build_med_db(/*compressed=*/false);
  std::ostringstream out;
  ASSERT_TRUE(core::try_save_database(out, plain).ok());
  const std::string bytes = out.str();

  // Loads as uncompressed, resaves identically: the optional section never
  // perturbs databases that do not use it.
  std::istringstream in(bytes);
  const auto loaded = core::try_load_database(in).value();
  EXPECT_FALSE(loaded.space.compress_docs());
  EXPECT_EQ(loaded.space.compressed_docs(), nullptr);
  std::ostringstream out2;
  ASSERT_TRUE(core::try_save_database(out2, loaded).ok());
  EXPECT_EQ(bytes, out2.str());

  // The compressed variant of the same index appends EXACTLY the trailing
  // section: marker + two dims (8 bytes each) + n*k encoded uint16 words.
  const auto compressed = build_med_db(/*compressed=*/true);
  std::ostringstream outc;
  ASSERT_TRUE(core::try_save_database(outc, compressed).ok());
  const std::size_t n = compressed.space.num_docs();
  const std::size_t k = compressed.space.k();
  EXPECT_EQ(outc.str().size(), bytes.size() + 24 + 2 * n * k);
  // And the common prefix is byte-identical (the mandatory fields do not
  // know about compression).
  EXPECT_EQ(outc.str().compare(0, bytes.size(), bytes), 0);
}

TEST(Bf16Io, TruncatedTrailingSectionIsDataLoss) {
  const auto db = build_med_db(/*compressed=*/true);
  std::ostringstream out;
  ASSERT_TRUE(core::try_save_database(out, db).ok());
  std::string bytes = out.str();
  bytes.resize(bytes.size() - 7);  // chop mid-payload
  std::istringstream in(bytes);
  const auto loaded = core::try_load_database(in);
  EXPECT_FALSE(loaded.ok());
}

// --- ranking sanity ---------------------------------------------------------

TEST(Bf16Rank, TopResultMatchesFp64OnMed) {
  core::IndexOptions opts;
  opts.k = 10;
  auto fp64 = core::LsiIndex::try_build(data::med_topics(), opts).value();
  opts.compress_docs = true;
  auto bf16 = core::LsiIndex::try_build(data::med_topics(), opts).value();

  const std::string query = "the effects of drugs on children";
  const auto r64 = fp64.query(query);
  const auto r16 = bf16.query(query);
  ASSERT_FALSE(r64.empty());
  ASSERT_FALSE(r16.empty());
  // Quantization shifts cosines by O(2^-9) relative; the clear winner and
  // its score survive.
  EXPECT_EQ(r64.front().label, r16.front().label);
  EXPECT_NEAR(r64.front().cosine, r16.front().cosine, 1e-2);
}

}  // namespace
