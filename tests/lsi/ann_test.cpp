// AnnIndex unit tests: build determinism, the exact-cutoff and disabled
// gates, the derived ceil(sqrt(n)) centroid count, partition integrity
// (every document in exactly one posting list, packed rows bit-equal to V),
// nested cluster selection, the recall_target -> nprobe mapping, the pruned
// path's probe, scan and flop counts, append-only extend(), and rotate() across
// a consolidation: the update's map, the kept assignment, full-probe
// exactness, the rebuild rules, and recall after many consolidations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "lsi/ann.hpp"
#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "lsi/doc_store.hpp"
#include "lsi/folding.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/update.hpp"
#include "obs/trace.hpp"
#include "synth/corpus.hpp"
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

TEST(AnnIndex, DerivedCentroidCountIsCeilSqrtN) {
  for (const auto& [n, want] : {std::pair<index_t, index_t>{144, 12},
                                std::pair<index_t, index_t>{150, 13}}) {
    auto space = small_space(60, n, 6, 37);
    const auto ann = AnnIndex::build(*space, test_options(), 1);
    ASSERT_NE(ann, nullptr);
    EXPECT_EQ(ann->num_centroids(), want) << "n = " << n;
  }
}

// The pruned path's QueryStats count exactly what it scanned: nprobe posting
// lists per query, and the summed sizes of the lists select_clusters picks.
TEST(AnnIndex, QueryStatsCountProbedListsAndScannedDocs) {
  auto space = small_space(60, 90, 6, 41);
  AnnOptions opts = test_options();
  opts.num_centroids = 9;
  const auto ann = AnnIndex::build(*space, opts, 1);
  ASSERT_NE(ann, nullptr);
  const index_t c_total = ann->num_centroids();
  const BatchedRetriever retriever(space, ann);

  util::Rng rng(43);
  std::vector<la::Vector> qhats(3, la::Vector(space->k()));
  for (auto& q : qhats) {
    for (auto& x : q) x = rng.uniform() - 0.5;
  }
  const auto batch = QueryBatch::from_projected(*space, qhats);

  for (const index_t nprobe : {index_t{1}, index_t{2}, c_total}) {
    SearchOptions sopts;  // kColumnSpace: clusters are picked by q_hat S
    sopts.search = SearchMode::kPruned;
    sopts.nprobe = nprobe;
    sopts.z = 5;
    QueryStats stats;
    (void)retriever.rank(batch, sopts, &stats);

    std::uint64_t want_scanned = 0;
    std::vector<index_t> clusters;
    for (const auto& qhat : qhats) {
      la::Vector coords(qhat);
      for (index_t i = 0; i < space->k(); ++i) coords[i] *= space->sigma[i];
      ann->select_clusters(coords, nprobe, clusters);
      for (const index_t c : clusters) {
        want_scanned += ann->cluster_docs(c).size();
      }
    }
    EXPECT_EQ(stats.ann_centroids_probed, nprobe * qhats.size())
        << "nprobe " << nprobe;
    EXPECT_EQ(stats.ann_docs_scanned, want_scanned) << "nprobe " << nprobe;
    if (nprobe == c_total) {
      EXPECT_EQ(stats.ann_docs_scanned, 90u * qhats.size());
    }
  }
}

// The pruned re-rank's flops count what runs, as scores() counts the sweep:
// zero weights skip their multiply-add, so at the full probe the re-rank
// term equals the exact sweep's 2 n nnz(w) + n B.
TEST(AnnIndex, FullProbeReRankFlopsMatchTheExactSweep) {
  auto space = small_space(60, 90, 6, 41);
  AnnOptions opts = test_options();
  opts.num_centroids = 9;
  const auto ann = AnnIndex::build(*space, opts, 1);
  ASSERT_NE(ann, nullptr);
  const BatchedRetriever retriever(space, ann);

  // Query b has b of its k weights at exactly zero.
  util::Rng rng(47);
  std::vector<la::Vector> qhats(3, la::Vector(space->k()));
  std::uint64_t nnz_w = 0;
  for (std::size_t b = 0; b < qhats.size(); ++b) {
    for (index_t i = 0; i < space->k(); ++i) {
      qhats[b][i] = i < b ? 0.0 : rng.uniform() - 0.5;
      if (qhats[b][i] != 0.0) ++nnz_w;
    }
  }
  const auto batch = QueryBatch::from_projected(*space, qhats);
  const std::uint64_t n = space->num_docs(), k = space->k(),
                      bsz = qhats.size();

  SearchOptions exact;
  exact.search = SearchMode::kExact;
  QueryStats exact_stats;
  (void)retriever.rank(batch, exact, &exact_stats);
  EXPECT_EQ(exact_stats.flops, 3 * k * bsz + 2 * n * nnz_w + n * bsz);

  SearchOptions full;
  full.search = SearchMode::kPruned;
  full.nprobe = ann->num_centroids();
  QueryStats pruned_stats;
  (void)retriever.rank(batch, full, &pruned_stats);
  const std::uint64_t centroids = 2 * ann->num_centroids() * k * bsz;
  EXPECT_EQ(pruned_stats.flops - centroids, exact_stats.flops);
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
        if (store != nullptr) rows16[t * k + i] = store->word(docs[t], i);
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

// ---------------------------------------------------------------------------
// rotate(): carrying the partition through a consolidation
// ---------------------------------------------------------------------------

std::uint64_t counter(const obs::Sink& sink, const std::string& name) {
  for (const auto& [n, v] : sink.metrics().counters()) {
    if (n == name) return v;
  }
  return 0;
}

/// max|M^T M - I|.
double orthogonality_error(const la::DenseMatrix& m) {
  const la::DenseMatrix g = la::multiply_at_b(m, m);
  double err = 0.0;
  for (index_t j = 0; j < g.cols(); ++j) {
    for (index_t i = 0; i < g.rows(); ++i) {
      err = std::max(err, std::abs(g(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  return err;
}

/// Centroid of each document (-1 when absent), checking that no document
/// sits in two posting lists.
std::vector<index_t> assignment(const AnnIndex& ann) {
  std::vector<index_t> assign(ann.num_docs(), static_cast<index_t>(-1));
  for (index_t c = 0; c < ann.num_centroids(); ++c) {
    for (index_t d : ann.cluster_docs(c)) {
      EXPECT_EQ(assign.at(d), static_cast<index_t>(-1)) << "doc " << d;
      assign.at(d) = c;
    }
  }
  return assign;
}

/// A 90-document space, its structure, and the same space after a
/// projection (or exact) SVD-update with 18 more documents.
struct Rotated {
  SemanticSpace before;
  SemanticSpace after;
  la::DenseMatrix map;
  std::shared_ptr<const AnnIndex> base;
};

Rotated rotated_fixture(bool exact, bool bf16 = false) {
  Rotated r;
  r.before = try_build_semantic_space(
                 synth::random_sparse_matrix(90, 90, 0.2, 71), 8)
                 .value();
  AnnOptions opts = test_options();
  opts.num_centroids = 7;
  r.base = AnnIndex::build(r.before, opts, 4);
  r.after = r.before;
  const la::CscMatrix d = synth::random_sparse_matrix(90, 18, 0.2, 73);
  r.map = exact ? update_documents_exact(r.after, d)
                : update_documents(r.after, d);
  r.after.set_compress_docs(bf16);
  return r;
}

TEST(AnnRotation, UpdateMapTakesOldCoordinatesToNewOnes) {
  for (const bool exact : {false, true}) {
    const Rotated r = rotated_fixture(exact);
    const index_t k = r.before.k();
    ASSERT_EQ(r.map.rows(), k);
    ASSERT_EQ(r.map.cols(), k);
    if (!exact) {
      EXPECT_LE(orthogonality_error(r.map), 1e-12);
    }
    for (index_t j = 0; j < r.before.num_docs(); ++j) {
      const la::Vector x = r.before.doc_coords(j);
      const la::Vector want = r.after.doc_coords(j);
      double diff = 0.0, norm = 0.0;
      for (index_t i = 0; i < k; ++i) {
        double got = 0.0;
        for (index_t l = 0; l < k; ++l) got += x[l] * r.map(l, i);
        diff += (got - want[i]) * (got - want[i]);
        norm += want[i] * want[i];
      }
      EXPECT_LE(std::sqrt(diff), 1e-10 * std::sqrt(norm))
          << (exact ? "exact" : "projection") << " doc " << j;
    }
  }
}

TEST(AnnRotation, KeptRowsStayAtTheirNearestRotatedCentroid) {
  const Rotated r = rotated_fixture(false);
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const auto rot = r.base->rotate(r.after, r.map, r.before.num_docs(), 9);
  ASSERT_NE(rot, nullptr);
  EXPECT_EQ(counter(sink, "ann.rotations"), 1u);
  EXPECT_EQ(counter(sink, "ann.builds"), 0u);
  EXPECT_EQ(rot->build_generation(), 4u);
  EXPECT_EQ(rot->num_centroids(), r.base->num_centroids());
  EXPECT_EQ(rot->num_docs(), r.after.num_docs());

  const std::vector<index_t> before = assignment(*r.base);
  const std::vector<index_t> after = assignment(*rot);
  const la::DenseMatrix& cent = rot->centroids();
  std::size_t ties = 0;
  for (index_t j = 0; j < r.after.num_docs(); ++j) {
    ASSERT_NE(after[j], static_cast<index_t>(-1)) << "doc " << j;
    if (j < r.before.num_docs()) {
      EXPECT_EQ(after[j], before[j]) << "kept doc " << j;
    }
    // Reassigning from scratch lands on the kept centroid, unless another
    // one scores the same to rounding.
    const la::Vector x = r.after.doc_coords(j);
    double mine = 0.0, best = -1e300;
    index_t arg = 0;
    for (index_t c = 0; c < rot->num_centroids(); ++c) {
      double dot = 0.0;
      for (index_t i = 0; i < rot->k(); ++i) dot += cent(i, c) * x[i];
      if (c == after[j]) mine = dot;
      if (dot > best) {
        best = dot;
        arg = c;
      }
    }
    if (arg != after[j]) {
      ++ties;
      EXPECT_NEAR(mine, best, 1e-12 * std::abs(best)) << "doc " << j;
    }
  }
  EXPECT_LE(ties, 1u);
  // Unit centroids.
  for (index_t c = 0; c < rot->num_centroids(); ++c) {
    double nrm = 0.0;
    for (index_t i = 0; i < rot->k(); ++i) nrm += cent(i, c) * cent(i, c);
    EXPECT_NEAR(nrm, 1.0, 1e-12);
  }
}

TEST(AnnRotation, FullProbeBitIdenticalToExact) {
  for (const bool bf16 : {false, true}) {
    const Rotated r = rotated_fixture(false, bf16);
    auto space = std::make_shared<SemanticSpace>(r.after);
    space->prewarm_doc_norms();
    const auto rot = r.base->rotate(*space, r.map, r.before.num_docs(), 9);
    ASSERT_NE(rot, nullptr);
    ASSERT_EQ(rot->has_bf16(), bf16);
    expect_regroup_of_assignment(*r.base, *rot, *space);

    util::Rng rng(79);
    std::vector<la::Vector> queries(12, la::Vector(90, 0.0));
    for (auto& q : queries) {
      for (int t = 0; t < 5; ++t) q[rng.uniform_index(90)] = 1.0;
    }
    const auto batch = QueryBatch::from_term_vectors(*space, queries);
    const BatchedRetriever retriever(space, rot);
    SearchOptions exact;
    exact.search = SearchMode::kExact;
    SearchOptions full;
    full.search = SearchMode::kPruned;
    full.nprobe = rot->num_centroids();
    const auto want = retriever.rank(batch, exact);
    const auto got = retriever.rank(batch, full);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < got.size(); ++q) {
      ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
      for (std::size_t i = 0; i < got[q].size(); ++i) {
        EXPECT_EQ(got[q][i].doc, want[q][i].doc) << "query " << q;
        EXPECT_EQ(got[q][i].cosine, want[q][i].cosine) << "query " << q;
      }
    }
  }
}

// Compression switched on after the build: the postings carry no bf16
// words, so the re-rank gathers the store's words per tile and must still
// reproduce the exact bf16 sweep bit for bit.
TEST(AnnIndex, FullProbeWithoutPackedBf16WordsMatchesExactBf16Sweep) {
  auto space = small_space(90, 120, 8, 101);
  const auto ann = AnnIndex::build(*space, test_options(), 1);
  ASSERT_NE(ann, nullptr);
  space->set_compress_docs(true);
  space->prewarm_doc_norms();
  ASSERT_NE(space->compressed_docs(), nullptr);
  ASSERT_FALSE(ann->has_bf16());

  util::Rng rng(103);
  std::vector<la::Vector> queries(10, la::Vector(90, 0.0));
  for (auto& q : queries) {
    for (int t = 0; t < 4; ++t) q[rng.uniform_index(90)] = 1.0;
  }
  const auto batch = QueryBatch::from_term_vectors(*space, queries);
  const BatchedRetriever retriever(space, ann);
  SearchOptions exact;
  exact.search = SearchMode::kExact;
  SearchOptions full;
  full.search = SearchMode::kPruned;
  full.nprobe = ann->num_centroids();
  const auto want = retriever.rank(batch, exact);
  const auto got = retriever.rank(batch, full);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    for (std::size_t i = 0; i < got[q].size(); ++i) {
      EXPECT_EQ(got[q][i].doc, want[q][i].doc) << "query " << q;
      EXPECT_EQ(got[q][i].cosine, want[q][i].cosine) << "query " << q;
    }
  }
}

TEST(AnnRotation, RebuildsWhenTheDocumentCountDoubles) {
  auto space = try_build_semantic_space(
                   synth::random_sparse_matrix(80, 40, 0.25, 83), 6)
                   .value();
  const auto base = AnnIndex::build(space, test_options(), 2);
  ASSERT_NE(base, nullptr);
  const la::DenseMatrix map =
      update_documents(space, synth::random_sparse_matrix(80, 40, 0.2, 89));
  ASSERT_EQ(space.num_docs(), 80u);
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const auto next = base->rotate(space, map, 40, 6);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(counter(sink, "ann.builds"), 1u);
  EXPECT_EQ(counter(sink, "ann.rotations"), 0u);
  EXPECT_EQ(next->build_generation(), 6u);
  EXPECT_EQ(next->num_centroids(), 9u);  // ceil(sqrt(80)) tracks n again
  EXPECT_EQ(next->num_docs(), 80u);
}

TEST(AnnRotation, RebuildsWhenTheMapStraysFromOrthogonal) {
  auto space = try_build_semantic_space(
                   synth::random_sparse_matrix(60, 50, 0.25, 97), 6)
                   .value();
  const auto base = AnnIndex::build(space, test_options(), 3);
  ASSERT_NE(base, nullptr);
  // M^T M = (1 + 0.6 tolerance) I is carried; (1 + 2 tolerance) I is not.
  // Both scale every cosine by the same factor, so only the orthogonality
  // rule can tell them apart.
  la::DenseMatrix map = la::DenseMatrix::identity(6);
  for (index_t i = 0; i < 6; ++i) {
    map(i, i) = std::sqrt(1.0 + 0.6 * kRotationTolerance);
  }
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const auto near = base->rotate(space, map, 50, 7);
  EXPECT_EQ(counter(sink, "ann.rotations"), 1u);
  EXPECT_EQ(counter(sink, "ann.builds"), 0u);
  EXPECT_EQ(near->build_generation(), 3u);
  for (index_t i = 0; i < 6; ++i) {
    map(i, i) = std::sqrt(1.0 + 2.0 * kRotationTolerance);
  }
  const auto far = near->rotate(space, map, 50, 8);
  EXPECT_EQ(counter(sink, "ann.rotations"), 1u);
  EXPECT_EQ(counter(sink, "ann.builds"), 1u);
  EXPECT_EQ(far->build_generation(), 8u);

  // A map far from orthogonal rebuilds at once.
  la::DenseMatrix shear = la::DenseMatrix::identity(6);
  shear(0, 1) = 0.5;
  EXPECT_EQ(base->rotate(space, shear, 50, 9)->build_generation(), 9u);
  EXPECT_EQ(counter(sink, "ann.builds"), 2u);
}

TEST(AnnRotation, RebuildsWhenTheBuildSawReprojectedRows) {
  // A structure built over 50 rows, of which the update re-projected the
  // last 10 (fold-ins published before the consolidation): where such a
  // build happened depends on batch boundaries, so it is not carried.
  auto space = try_build_semantic_space(
                   synth::random_sparse_matrix(60, 50, 0.25, 101), 6)
                   .value();
  const auto base = AnnIndex::build(space, test_options(), 3);
  ASSERT_NE(base, nullptr);
  const la::DenseMatrix id = la::DenseMatrix::identity(6);
  EXPECT_EQ(base->rotate(space, id, 40, 5)->build_generation(), 5u);
  EXPECT_EQ(base->rotate(space, id, 50, 5)->build_generation(), 3u);
}

/// recall@10 of the default (pruned) search over `ann` against the exact
/// scan of the same space.
double recall_at_10(const std::shared_ptr<const SemanticSpace>& space,
                    const std::shared_ptr<const AnnIndex>& ann,
                    const std::vector<la::SparseVector>& queries) {
  const auto batch = QueryBatch::from_sparse(*space, queries);
  const BatchedRetriever retriever(space, ann);
  SearchOptions pruned;  // the defaults, ten results
  pruned.z = 10;
  SearchOptions exact = pruned;
  exact.search = SearchMode::kExact;
  const auto truth = retriever.rank(batch, exact);
  const auto got = retriever.rank(batch, pruned);
  double hit = 0.0, want = 0.0;
  for (std::size_t q = 0; q < got.size(); ++q) {
    std::set<index_t> top;
    for (const auto& d : truth[q]) top.insert(d.doc);
    for (const auto& d : got[q]) hit += static_cast<double>(top.count(d.doc));
    want += static_cast<double>(top.size());
  }
  return want > 0.0 ? hit / want : 1.0;
}

struct Streamed {
  double carried = 0.0;  ///< recall@10 of the published structure
  double rebuilt = 0.0;  ///< recall@10 of a fresh build on the same space
  std::uint64_t rotations = 0;
  std::uint64_t builds = 0;  ///< from-scratch builds after construction
  std::uint64_t generation = 0;
  std::size_t consolidations = 0;
};

/// Streams docs[base.num_docs():] into a copy of `base` through a
/// ConcurrentIndexer that consolidates every 40, and measures recall@10 at
/// default SearchOptions on the final snapshot.
Streamed stream_documents(const LsiIndex& base, const text::Collection& docs,
                          const std::vector<synth::Query>& topic_queries,
                          bool exact_update) {
  ConcurrentOptions copts;
  copts.exact_update = exact_update;
  copts.consolidate_every = 40;
  copts.ann.exact_cutoff = 500;
  ConcurrentIndexer indexer(base, copts);
  Streamed out;
  std::shared_ptr<const IndexSnapshot> snap;
  {
    obs::Sink sink;
    obs::ScopedSink scoped(&sink);
    for (std::size_t d = base.space().num_docs(); d < docs.size(); ++d) {
      EXPECT_TRUE(indexer.add(docs[d]).ok());
    }
    indexer.flush();
    snap = indexer.snapshot();
    indexer.shutdown();
    out.rotations = counter(sink, "ann.rotations");
    out.builds = counter(sink, "ann.builds");
  }
  EXPECT_EQ(snap->space().num_docs(), docs.size());
  out.consolidations = indexer.consolidations();
  if (snap->ann() == nullptr) return out;
  out.generation = snap->ann()->build_generation();

  std::vector<la::SparseVector> queries;
  for (const auto& q : topic_queries) {
    queries.push_back(snap->context().weighted_terms(q.text));
  }
  for (std::size_t d = 0; d < docs.size(); d += 7) {
    queries.push_back(snap->context().weighted_terms(docs[d].body));
  }
  out.carried = recall_at_10(snap->space_ptr(), snap->ann(), queries);
  out.rebuilt = recall_at_10(
      snap->space_ptr(), AnnIndex::build(snap->space(), copts.ann, 0),
      queries);
  return out;
}

TEST(AnnRotation, RecallHoldsAcrossConsolidations) {
  // 1,200 documents generated topic by topic; the index is built on the
  // first 800 and the other 400 (+50%) stream in over 10 consolidations.
  synth::CorpusSpec spec;
  spec.topics = 10;
  spec.docs_per_topic = 120;
  spec.own_topic_prob = 0.5;
  spec.seed = 20261;
  const auto corpus = synth::generate_corpus(spec);
  const std::size_t train = 800;
  // The same documents dealt round-robin over the topics: every batch of
  // the stream looks like the documents already indexed.
  text::Collection dealt;
  for (std::size_t d = 0; d < spec.docs_per_topic; ++d) {
    for (std::size_t t = 0; t < spec.topics; ++t) {
      dealt.push_back(corpus.docs[t * spec.docs_per_topic + d]);
    }
  }

  IndexOptions iopts;
  iopts.k = 24;
  const LsiIndex dealt_base =
      LsiIndex::try_build({dealt.begin(), dealt.begin() + train}, iopts)
          .value();
  const LsiIndex topic_base =
      LsiIndex::try_build(
          {corpus.docs.begin(), corpus.docs.begin() + train}, iopts)
          .value();

  for (const bool exact_update : {false, true}) {
    const char* mode = exact_update ? "exact update" : "projection update";
    // Stationary stream: the partition is carried the whole way.
    const Streamed steady =
        stream_documents(dealt_base, dealt, corpus.queries, exact_update);
    EXPECT_EQ(steady.consolidations, 10u) << mode;
    EXPECT_EQ(steady.rotations, 10u) << mode;
    EXPECT_EQ(steady.builds, 0u) << mode;
    EXPECT_EQ(steady.generation, 1u) << mode;
    EXPECT_GE(steady.carried, steady.rebuilt - 0.02) << mode;

    // New topics: their documents fit no carried centroid, so the fit rule
    // rebuilds as each one arrives and recall holds all the same. (The
    // stream grows the index by half and, in projection mode, every map is
    // orthogonal: no other rule can fire there.)
    const Streamed drift = stream_documents(topic_base, corpus.docs,
                                            corpus.queries, exact_update);
    EXPECT_EQ(drift.consolidations, 10u) << mode;
    EXPECT_GE(drift.builds, 1u) << mode;
    if (!exact_update) {
      EXPECT_GE(drift.rotations, 1u) << mode;
    }
    EXPECT_GE(drift.carried, drift.rebuilt - 0.02) << mode;
  }
}

}  // namespace
