// 64-byte-aligned numeric storage (docs/KERNELS.md): every DenseMatrix
// allocation must land on a cache-line boundary so the dispatched SIMD
// kernels' loadu instructions are aligned in practice, and swapping the
// allocator must not perturb a single ranking bit. The byte-exact
// cross-change anchor is lsi_io_golden_test (the committed .lsidb fixture
// pins U/sigma/V bit-for-bit against the pre-aligned-storage build); here we
// pin the alignment invariant itself across every construction path plus an
// end-to-end ranking reproducibility check on aligned storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "la/dense.hpp"
#include "lsi/lsi.hpp"
#include "util/aligned.hpp"

namespace {

using namespace lsi;

bool is_aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(AlignedStorage, AlignedVectorDataIsCacheLineAligned) {
  // Sizes straddling the rounding boundary: 1 element, one full line (8
  // doubles), a non-multiple, and something large enough to force a real
  // heap block.
  for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    util::aligned_vector<double> v(n, 1.5);
    EXPECT_TRUE(is_aligned64(v.data())) << n << " elements";
    // Growth reallocates through the same allocator.
    v.resize(n * 2 + 1, 2.5);
    EXPECT_TRUE(is_aligned64(v.data())) << n << " elements after resize";
    EXPECT_EQ(v.front(), 1.5);
    EXPECT_EQ(v.back(), 2.5);
  }
  // float specialization (the bf16 store's scratch buffers).
  util::aligned_vector<float> f(37, 0.25f);
  EXPECT_TRUE(is_aligned64(f.data()));
}

TEST(AlignedStorage, EveryDenseMatrixConstructionPathIsAligned) {
  la::DenseMatrix zero(5, 3);  // odd row count: base stays aligned anyway
  EXPECT_TRUE(is_aligned64(zero.data()));

  const auto rows = la::DenseMatrix::from_rows(
      {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}});
  EXPECT_TRUE(is_aligned64(rows.data()));

  EXPECT_TRUE(is_aligned64(la::DenseMatrix::identity(7).data()));
  EXPECT_TRUE(is_aligned64(rows.first_cols(2).data()));
  EXPECT_TRUE(is_aligned64(rows.transposed().data()));

  auto grown = rows;
  grown.append_cols(la::DenseMatrix::from_rows({{1.0}, {2.0}, {3.0}}));
  EXPECT_TRUE(is_aligned64(grown.data()));
  grown.append_rows(la::DenseMatrix(2, grown.cols()));
  EXPECT_TRUE(is_aligned64(grown.data()));

  // Values survive the aligned round trips untouched.
  EXPECT_EQ(rows(0, 0), 1.0);
  EXPECT_EQ(rows(2, 2), 9.0);
  EXPECT_EQ(grown(0, 3), 1.0);
  EXPECT_EQ(grown.rows(), 5u);
}

TEST(AlignedStorage, IndexFactorsAreAlignedAndRankingsReproducible) {
  text::Collection docs;
  const std::vector<std::string> bodies = {
      "human machine interface for abc computer applications",
      "a survey of user opinion of computer system response time",
      "the eps user interface management system",
      "system and human system engineering testing of eps",
      "relation of user perceived response time to error measurement",
      "the generation of random binary unordered trees",
      "the intersection graph of paths in trees",
      "graph minors iv widths of trees and well quasi ordering",
      "graph minors a survey",
  };
  for (std::size_t d = 0; d < bodies.size(); ++d) {
    std::string label = "c";
    label += std::to_string(d);
    docs.push_back({label, bodies[d]});
  }

  core::IndexOptions opts;
  opts.k = 2;
  auto index = core::LsiIndex::try_build(docs, opts).value();

  // The factor matrices the Eq. 6 hot path sweeps are the point of the
  // whole exercise: their bases must be cache-line aligned.
  EXPECT_TRUE(is_aligned64(index.space().u.data()));
  EXPECT_TRUE(is_aligned64(index.space().v.block(0)));

  // Build-to-build and query-to-query reproducibility on aligned storage:
  // the allocator changes where the bytes live, never what they are.
  auto again = core::LsiIndex::try_build(docs, opts).value();
  core::SearchOptions qopts;
  for (const char* q : {"human computer interaction", "graph minors trees"}) {
    const auto a = index.query(q, qopts, nullptr);
    const auto b = again.query(q, qopts, nullptr);
    ASSERT_EQ(a.size(), b.size()) << q;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc) << q << " rank " << i;
      EXPECT_EQ(a[i].cosine, b[i].cosine) << q << " rank " << i;
    }
  }
}

}  // namespace
