// Cluster-pruned near-neighbor search tests (the Section 5.6 extension).

#include <gtest/gtest.h>

#include <set>

#include "lsi/neighbors.hpp"
#include "lsi/retrieval.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;
using core::index_t;

core::SemanticSpace make_space(index_t m, index_t n, index_t k,
                               std::uint64_t seed) {
  return core::try_build_semantic_space(
      synth::random_sparse_matrix(m, n, 0.05, seed), k).value();
}

/// Sigma-scaled query coordinates for the kColumnSpace similarity.
la::Vector scaled_query(const core::SemanticSpace& space,
                        const la::Vector& raw) {
  la::Vector q = core::project_query(space, raw);
  for (index_t i = 0; i < q.size(); ++i) q[i] *= space.sigma[i];
  return q;
}

TEST(NeighborIndex, BuildsExpectedClusterCount) {
  auto space = make_space(200, 144, 8, 1);
  core::DocNeighborIndex index(space);
  EXPECT_EQ(index.num_clusters(), 12u);  // sqrt(144)
  EXPECT_EQ(index.num_docs(), 144u);

  core::NeighborIndexOptions opts;
  opts.clusters = 5;
  core::DocNeighborIndex index5(space, opts);
  EXPECT_EQ(index5.num_clusters(), 5u);
}

TEST(NeighborIndex, FullProbeEqualsExactSearch) {
  auto space = make_space(150, 100, 6, 2);
  core::DocNeighborIndex index(space);

  la::Vector raw(150, 0.0);
  raw[3] = 1.0;
  raw[17] = 1.0;
  const la::Vector q = scaled_query(space, raw);

  auto approx = index.query(q, 10, index.num_clusters());
  auto exact = core::rank_documents(space, core::project_query(space, raw),
                                    {.z = 10,
                                     .mode = core::SimilarityMode::kColumnSpace,
                                     .min_cosine = -1.0});
  ASSERT_EQ(approx.size(), exact.size());
  for (std::size_t i = 0; i < approx.size(); ++i) {
    EXPECT_EQ(approx[i].doc, exact[i].doc) << "rank " << i;
    EXPECT_NEAR(approx[i].cosine, exact[i].cosine, 1e-10);
  }
}

TEST(NeighborIndex, FewProbesRecoverMostTrueNeighbors) {
  auto space = make_space(400, 360, 10, 3);
  core::NeighborIndexOptions opts;
  opts.clusters = 18;
  core::DocNeighborIndex index(space, opts);

  double total_recall = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    la::Vector raw(400, 0.0);
    raw[(t * 13) % 400] = 1.0;
    raw[(t * 29 + 7) % 400] = 1.0;
    const la::Vector q = scaled_query(space, raw);

    std::set<index_t> truth;
    for (const auto& sd :
         index.query(q, 10, index.num_clusters())) {  // exhaustive
      truth.insert(sd.doc);
    }
    std::size_t hits = 0;
    for (const auto& sd : index.query(q, 10, 4)) hits += truth.count(sd.doc);
    total_recall += static_cast<double>(hits) / 10.0;
  }
  EXPECT_GT(total_recall / trials, 0.6);
}

TEST(NeighborIndex, StatsCountScoredDocuments) {
  auto space = make_space(120, 90, 5, 4);
  core::NeighborIndexOptions opts;
  opts.clusters = 9;
  core::DocNeighborIndex index(space, opts);
  la::Vector q(5, 0.5);

  core::NeighborQueryStats stats;
  (void)index.query(q, 5, 2, &stats);
  EXPECT_EQ(stats.clusters_probed, 2u);
  EXPECT_LT(stats.documents_scored, 90u);
  EXPECT_GT(stats.documents_scored, 0u);

  (void)index.query(q, 5, 9, &stats);
  EXPECT_EQ(stats.documents_scored, 90u);  // all clusters -> all docs
}

TEST(NeighborIndex, ProbesClampedToValidRange) {
  auto space = make_space(60, 40, 4, 5);
  core::NeighborIndexOptions opts;
  opts.clusters = 4;
  core::DocNeighborIndex index(space, opts);
  la::Vector q(4, 1.0);
  EXPECT_FALSE(index.query(q, 3, 0).empty());    // clamped up to 1
  EXPECT_FALSE(index.query(q, 3, 100).empty());  // clamped down to 4
}

TEST(NeighborIndex, DeterministicForSeed) {
  auto space = make_space(100, 80, 5, 6);
  core::DocNeighborIndex a(space), b(space);
  la::Vector q(5, 0.3);
  auto ra = a.query(q, 8, 2);
  auto rb = b.query(q, 8, 2);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].doc, rb[i].doc);
  }
}

}  // namespace
