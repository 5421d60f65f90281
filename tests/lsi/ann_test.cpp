// AnnIndex unit tests: build determinism, the exact-cutoff and disabled
// gates, partition integrity (every document in exactly one posting list,
// packed rows bit-equal to V), nested cluster selection, the
// recall_target -> nprobe mapping, and append-only extend().

#include <gtest/gtest.h>

#include <cstring>
#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "la/dense.hpp"
#include "lsi/ann.hpp"
#include "lsi/doc_store.hpp"
#include "lsi/folding.hpp"
#include "lsi/semantic_space.hpp"
#include "synth/sparse_random.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

std::shared_ptr<SemanticSpace> small_space(index_t m, index_t n, index_t k,
                                           unsigned seed) {
  auto a = synth::random_sparse_matrix(m, n, 0.3, seed);
  return std::make_shared<SemanticSpace>(
      try_build_semantic_space(a, k).value());
}

AnnOptions test_options() {
  AnnOptions opts;
  opts.exact_cutoff = 0;  // tests run on tiny corpora; always build
  return opts;
}

TEST(AnnIndex, BuildBelowCutoffReturnsNull) {
  auto space = small_space(40, 30, 6, 7);
  AnnOptions opts;
  opts.exact_cutoff = 31;  // corpus has 30 docs
  EXPECT_EQ(AnnIndex::build(*space, opts, 1), nullptr);
  opts.exact_cutoff = 30;
  EXPECT_NE(AnnIndex::build(*space, opts, 1), nullptr);
}

TEST(AnnIndex, BuildDisabledReturnsNull) {
  auto space = small_space(40, 30, 6, 7);
  AnnOptions opts = test_options();
  opts.enabled = false;
  EXPECT_EQ(AnnIndex::build(*space, opts, 1), nullptr);
}

TEST(AnnIndex, BuildIsDeterministic) {
  auto space = small_space(60, 50, 8, 11);
  const auto a = AnnIndex::build(*space, test_options(), 3);
  const auto b = AnnIndex::build(*space, test_options(), 3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->num_centroids(), b->num_centroids());
  ASSERT_EQ(a->num_docs(), b->num_docs());
  for (index_t c = 0; c < a->num_centroids(); ++c) {
    const auto da = a->cluster_docs(c);
    const auto db = b->cluster_docs(c);
    ASSERT_EQ(da.size(), db.size()) << "centroid " << c;
    for (std::size_t t = 0; t < da.size(); ++t) {
      EXPECT_EQ(da[t], db[t]) << "centroid " << c << " slot " << t;
    }
    const auto ra = a->cluster_rows(c);
    const auto rb = b->cluster_rows(c);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i], rb[i]);  // exact bits
    }
  }
}

TEST(AnnIndex, PostingListsPartitionTheCorpus) {
  auto space = small_space(60, 50, 8, 13);
  const auto ann = AnnIndex::build(*space, test_options(), 1);
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->num_docs(), 50u);
  EXPECT_EQ(ann->k(), 8u);
  EXPECT_EQ(ann->build_generation(), 1u);

  std::set<index_t> seen;
  for (index_t c = 0; c < ann->num_centroids(); ++c) {
    const auto docs = ann->cluster_docs(c);
    const auto rows = ann->cluster_rows(c);
    ASSERT_EQ(rows.size(), docs.size() * ann->k());
    for (std::size_t t = 0; t < docs.size(); ++t) {
      EXPECT_TRUE(seen.insert(docs[t]).second)
          << "doc " << docs[t] << " in two posting lists";
      if (t > 0) {
        EXPECT_LT(docs[t - 1], docs[t]);  // ascending per list
      }
      // Packed rows are bit-exact copies of V's rows.
      for (index_t i = 0; i < ann->k(); ++i) {
        EXPECT_EQ(rows[t * ann->k() + i], space->v(docs[t], i));
      }
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(AnnIndex, ManyCentroidsStillPartition) {
  // More centroids than natural clusters forces the empty-cluster reseed
  // path; the invariant stays: a valid partition, no out-of-range docs.
  auto space = small_space(50, 40, 6, 17);
  AnnOptions opts = test_options();
  opts.num_centroids = 32;
  const auto ann = AnnIndex::build(*space, opts, 1);
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->num_centroids(), 32u);
  std::size_t total = 0;
  for (index_t c = 0; c < ann->num_centroids(); ++c) {
    for (index_t d : ann->cluster_docs(c)) EXPECT_LT(d, 40u);
    total += ann->cluster_docs(c).size();
  }
  EXPECT_EQ(total, 40u);
}

TEST(AnnIndex, SelectClustersIsNestedInNprobe) {
  auto space = small_space(60, 50, 8, 19);
  const auto ann = AnnIndex::build(*space, test_options(), 1);
  ASSERT_NE(ann, nullptr);
  const index_t c_total = ann->num_centroids();
  ASSERT_GT(c_total, 1u);

  util::Rng rng(23);
  std::vector<double> q(ann->k());
  for (auto& x : q) x = rng.uniform() - 0.5;

  std::vector<index_t> prev, cur;
  for (index_t p = 1; p <= c_total; ++p) {
    ann->select_clusters(q, p, cur);
    ASSERT_EQ(cur.size(), p);
    const std::set<index_t> cur_set(cur.begin(), cur.end());
    ASSERT_EQ(cur_set.size(), cur.size()) << "duplicate centroid at p=" << p;
    for (index_t c : prev) {
      EXPECT_TRUE(cur_set.count(c))
          << "nprobe " << p << " dropped a centroid from " << (p - 1);
    }
    prev = cur;
  }
}

TEST(AnnIndex, ResolveNprobeClampsAndIsMonotone) {
  auto space = small_space(60, 50, 8, 29);
  const auto ann = AnnIndex::build(*space, test_options(), 1);
  ASSERT_NE(ann, nullptr);
  const index_t c_total = ann->num_centroids();

  SearchOptions opts;
  opts.nprobe = 0;
  index_t prev = 0;
  for (double t : {0.05, 0.25, 0.5, 0.8, 0.95, 0.97, 0.99, 1.0}) {
    opts.recall_target = t;
    const index_t p = ann->resolve_nprobe(opts);
    EXPECT_GE(p, 1u);
    EXPECT_LE(p, c_total);
    EXPECT_GE(p, prev) << "recall_target " << t << " lowered nprobe";
    prev = p;
  }
  // Perfect recall degenerates to the exact scan.
  opts.recall_target = 1.0;
  EXPECT_EQ(ann->resolve_nprobe(opts), c_total);

  // Explicit nprobe wins and is clamped to [1, C].
  opts.nprobe = 1;
  EXPECT_EQ(ann->resolve_nprobe(opts), 1u);
  opts.nprobe = c_total + 1000;
  EXPECT_EQ(ann->resolve_nprobe(opts), c_total);
}

TEST(AnnIndex, ExtendCoversAppendedRowsAndKeepsGeneration) {
  auto a = synth::random_sparse_matrix(50, 40, 0.3, 31);
  auto space = try_build_semantic_space(a, 6).value();
  const auto base = AnnIndex::build(space, test_options(), 5);
  ASSERT_NE(base, nullptr);

  // Fold three new documents in (append-only: existing rows untouched).
  util::Rng rng(37);
  la::DenseMatrix extra(50, 3);
  for (index_t d = 0; d < 3; ++d) {
    for (int t = 0; t < 6; ++t) extra(rng.uniform_index(50), d) = 1.0;
  }
  fold_in_documents(space, extra);
  ASSERT_EQ(space.num_docs(), 43u);

  const auto grown = base->extend(space);
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ(grown->num_docs(), 43u);
  EXPECT_EQ(grown->num_centroids(), base->num_centroids());
  // The partition itself did not change: the build generation carries over.
  EXPECT_EQ(grown->build_generation(), 5u);

  std::set<index_t> seen;
  std::size_t total = 0;
  for (index_t c = 0; c < grown->num_centroids(); ++c) {
    for (index_t d : grown->cluster_docs(c)) seen.insert(d);
    total += grown->cluster_docs(c).size();
  }
  EXPECT_EQ(total, 43u);
  EXPECT_EQ(seen.size(), 43u);

  // Existing documents kept their assignments.
  auto assignment_of = [](const AnnIndex& ann, index_t doc) {
    for (index_t c = 0; c < ann.num_centroids(); ++c) {
      for (index_t d : ann.cluster_docs(c)) {
        if (d == doc) return c;
      }
    }
    return static_cast<index_t>(-1);
  };
  for (index_t d = 0; d < 40; ++d) {
    EXPECT_EQ(assignment_of(*grown, d), assignment_of(*base, d)) << "doc " << d;
  }
}

/// Asserts `grown` is exactly what a from-scratch regroup of its assignment
/// over `space` produces: existing documents keep `base`'s centroid, each
/// appended document sits at its nearest centroid, posting lists ascend by
/// local id, and the packed rows (and bf16 words, iff the space carries a
/// compressed store) are bit copies of V (of the store) in posting order.
void expect_regroup_of_assignment(const AnnIndex& base, const AnnIndex& grown,
                                  const SemanticSpace& space) {
  const index_t n = space.num_docs();
  const index_t k = space.k();
  ASSERT_EQ(grown.num_docs(), n);
  ASSERT_EQ(grown.num_centroids(), base.num_centroids());
  std::vector<index_t> assign(n, static_cast<index_t>(-1));
  for (index_t c = 0; c < grown.num_centroids(); ++c) {
    for (index_t d : grown.cluster_docs(c)) {
      ASSERT_LT(d, n);
      ASSERT_EQ(assign[d], static_cast<index_t>(-1)) << "doc " << d;
      assign[d] = c;
    }
  }
  for (index_t c = 0; c < base.num_centroids(); ++c) {
    for (index_t d : base.cluster_docs(c)) EXPECT_EQ(assign[d], c) << d;
  }
  std::vector<index_t> nearest;
  for (index_t d = base.num_docs(); d < n; ++d) {
    grown.select_clusters(space.doc_coords(d), 1, nearest);
    EXPECT_EQ(assign[d], nearest[0]) << "appended doc " << d;
  }

  const Bf16DocStore* store = space.compressed_docs();
  ASSERT_EQ(grown.has_bf16(), store != nullptr);
  for (index_t c = 0; c < grown.num_centroids(); ++c) {
    std::vector<index_t> docs;
    for (index_t d = 0; d < n; ++d) {
      if (assign[d] == c) docs.push_back(d);
    }
    const auto got = grown.cluster_docs(c);
    ASSERT_EQ(got.size(), docs.size()) << "centroid " << c;
    EXPECT_TRUE(std::equal(docs.begin(), docs.end(), got.begin()))
        << "centroid " << c;
    std::vector<double> rows(docs.size() * k);
    std::vector<std::uint16_t> rows16(docs.size() * k);
    for (std::size_t t = 0; t < docs.size(); ++t) {
      for (index_t i = 0; i < k; ++i) {
        rows[t * k + i] = space.v(docs[t], i);
        if (store != nullptr) rows16[t * k + i] = store->col(i)[docs[t]];
      }
    }
    EXPECT_EQ(std::memcmp(rows.data(), grown.cluster_rows(c).data(),
                          rows.size() * sizeof(double)),
              0)
        << "centroid " << c;
    if (store != nullptr) {
      EXPECT_EQ(std::memcmp(rows16.data(), grown.cluster_rows_bf16(c).data(),
                            rows16.size() * sizeof(std::uint16_t)),
                0)
          << "centroid " << c;
    }
  }
}

/// Builds an AnnIndex with compression `before`, folds 17 documents in, and
/// extends it over the space with compression `after`.
void check_extend_is_regroup(bool before, bool after) {
  auto a = synth::random_sparse_matrix(70, 60, 0.25, 41);
  auto space = try_build_semantic_space(a, 7).value();
  space.set_compress_docs(before);
  AnnOptions opts = test_options();
  opts.num_centroids = 5;
  const auto base = AnnIndex::build(space, opts, 2);
  ASSERT_NE(base, nullptr);
  ASSERT_EQ(base->has_bf16(), before);

  fold_in_documents(space, synth::random_sparse_matrix(70, 17, 0.2, 43));
  space.set_compress_docs(after);
  const auto grown = base->extend(space);
  ASSERT_NE(grown, nullptr);
  EXPECT_EQ(grown->build_generation(), 2u);
  expect_regroup_of_assignment(*base, *grown, space);
}

TEST(AnnIndex, ExtendCopyEqualsRegroup) {
  check_extend_is_regroup(false, false);
}

TEST(AnnIndex, ExtendCopyEqualsRegroupWithBf16) {
  check_extend_is_regroup(true, true);
}

TEST(AnnIndex, ExtendFallsBackToRegroupWhenBf16Appears) {
  check_extend_is_regroup(false, true);
}

TEST(AnnIndex, ExtendFallsBackToRegroupWhenBf16Disappears) {
  check_extend_is_regroup(true, false);
}

TEST(AnnOptions, ValidateRejectsEmptyTrainingSample) {
  AnnOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.training_sample = 0;
  EXPECT_FALSE(opts.Validate().ok());
}

}  // namespace
