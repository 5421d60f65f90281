// Term profiles and facets at O(hits k) (docs/GATHER.md §3-4): the batched
// profile kernel, the one-sweep facet scorer and the per-consolidation
// profile cache must reproduce the per-hit code they replaced BIT FOR BIT.
// The old per-hit bodies live on below as the oracles; every property is an
// EXPECT_EQ on doubles, never a tolerance. Factor entries are drawn from a
// small set of dyadic values so magnitudes and weights tie often, and the
// vocabularies are deliberately not in alphabetical order, so the
// alphabetical tie-breaks at every top-k cut are exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "la/vector_ops.hpp"
#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "lsi/gather/dedup.hpp"
#include "lsi/gather/facets.hpp"
#include "lsi/lsi.hpp"
#include "lsi/sharding/sharded_index.hpp"
#include "obs/trace.hpp"
#include "synth/corpus.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi;
using gather::Facet;
using gather::SparseTermVector;
using la::index_t;

// ---------------------------------------------------------------------------
// Oracles: the per-hit bodies the kernels replaced, kept verbatim.
// ---------------------------------------------------------------------------

SparseTermVector oracle_term_profile(const la::DenseMatrix& u,
                                     const std::vector<double>& sigma,
                                     const la::DenseMatrix& v, index_t doc_row,
                                     const text::Vocabulary& vocabulary,
                                     std::size_t top_terms = 64) {
  la::Vector coords = v.row(doc_row);
  for (std::size_t f = 0; f < coords.size() && f < sigma.size(); ++f) {
    coords[f] *= sigma[f];
  }
  const la::Vector profile = la::multiply(u, coords);

  std::vector<index_t> order;
  order.reserve(profile.size());
  for (index_t i = 0; i < profile.size(); ++i) {
    if (profile[i] != 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    const double ma = std::fabs(profile[a]), mb = std::fabs(profile[b]);
    if (ma != mb) return ma > mb;
    return vocabulary.term(a) < vocabulary.term(b);
  });
  if (top_terms > 0 && order.size() > top_terms) order.resize(top_terms);

  SparseTermVector out;
  out.reserve(order.size());
  for (index_t i : order) out.emplace_back(vocabulary.term(i), profile[i]);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool facet_before(const Facet& a, const Facet& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.term < b.term;
}

std::vector<Facet> oracle_shard_facets(const la::DenseMatrix& u,
                                       const std::vector<double>& sigma,
                                       const la::DenseMatrix& v,
                                       const text::Vocabulary& vocabulary,
                                       const std::vector<index_t>& doc_rows,
                                       std::size_t top_terms) {
  if (doc_rows.empty() || top_terms == 0 || u.rows() == 0) return {};
  const std::size_t k = std::min<std::size_t>(u.cols(), sigma.size());

  la::Vector centroid(k, 0.0);
  for (index_t row : doc_rows) {
    const la::Vector coords = v.row(row);
    for (std::size_t f = 0; f < k; ++f) centroid[f] += coords[f] * sigma[f];
  }
  la::scale(centroid, 1.0 / static_cast<double>(doc_rows.size()));
  if (la::norm2(centroid) == 0.0) return {};

  std::vector<Facet> scored;
  scored.reserve(u.rows());
  la::Vector term_coords(k, 0.0);
  for (index_t i = 0; i < u.rows(); ++i) {
    for (std::size_t f = 0; f < k; ++f) term_coords[f] = u(i, f) * sigma[f];
    const double w = la::cosine(term_coords, centroid);
    if (w > 0.0) scored.push_back(Facet{vocabulary.term(i), w});
  }
  std::sort(scored.begin(), scored.end(), facet_before);
  if (scored.size() > top_terms) scored.resize(top_terms);
  return scored;
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A dyadic value from a small set: products and sums of these are exact
/// often enough that magnitudes and cosines tie.
double dyadic(util::Rng& rng) {
  static const double kValues[] = {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0};
  return kValues[rng.uniform_index(7)];
}

/// A vocabulary whose row order is not alphabetical: a shuffled base list,
/// then more terms through Vocabulary::add after construction.
text::Vocabulary shuffled_vocabulary(std::size_t m, util::Rng& rng) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < m; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    names.push_back(name);
  }
  for (std::size_t i = m; i > 1; --i) {
    std::swap(names[i - 1], names[rng.uniform_index(i)]);
  }
  const std::size_t base = m / 2;
  text::Vocabulary vocab(
      std::vector<std::string>(names.begin(), names.begin() + base));
  for (std::size_t i = base; i < m; ++i) vocab.add(names[i]);
  return vocab;
}

struct Factors {
  la::DenseMatrix u, v;
  std::vector<double> sigma;
  text::Vocabulary vocab;
};

/// m x k U and n x k V with some duplicated and some all-zero rows in
/// both. Odd seeds draw dyadic entries and powers of two for sigma (exact
/// arithmetic, many ties); even seeds draw normal deviates, whose rounding
/// exposes any change in the order products are formed or summed.
Factors random_factors(std::size_t m, std::size_t n, std::size_t k,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  const bool exact = seed % 2 == 1;
  Factors f{la::DenseMatrix(m, k), la::DenseMatrix(n, k), {}, {}};
  for (std::size_t c = 0; c < k; ++c) {
    f.sigma.push_back(exact ? std::ldexp(1.0, static_cast<int>(k - c) - 2)
                            : 1.0 + rng.uniform() * static_cast<double>(k - c));
  }
  const auto fill = [&](la::DenseMatrix& a) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double pick = rng.uniform();
      for (index_t c = 0; c < k; ++c) {
        if (pick < 0.1) {
          a(i, c) = 0.0;  // a zero row
        } else if (pick < 0.3 && i > 0) {
          a(i, c) = a(i - 1, c);  // a copy of the row above
        } else {
          a(i, c) = exact ? dyadic(rng) : rng.normal();
        }
      }
    }
  };
  fill(f.u);
  fill(f.v);
  f.vocab = shuffled_vocabulary(m, rng);
  return f;
}

template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

void expect_same_profile(const SparseTermVector& got,
                         const SparseTermVector& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << what << " entry " << i;
    EXPECT_EQ(got[i].second, want[i].second) << what << " entry " << i;
  }
}

void expect_same_facets(const std::vector<Facet>& got,
                        const std::vector<Facet>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].term, want[i].term) << what << " rank " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << what << " rank " << i;
  }
}

std::uint64_t counter_value(const obs::Sink& sink, const std::string& name) {
  for (const auto& [n, v] : sink.metrics().counters()) {
    if (n == name) return v;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

TEST(GatherProfileOracle, BatchedProfilesMatchThePerHitOracleBitForBit) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    // Every fourth seed spans several of the kernel's row blocks.
    const std::size_t m = seed % 4 == 0 ? 1100 + seed : 20 + 13 * (seed % 5);
    const std::size_t n = 30, k = 1 + seed % 7;
    const Factors f = random_factors(m, n, k, seed);
    // Every row, some twice (a batch may name a row more than once), 33 in
    // all so the last tile of four is partial.
    std::vector<index_t> rows;
    for (index_t r = 0; r < n; ++r) rows.push_back(r);
    rows.push_back(3);
    rows.push_back(0);
    rows.push_back(7);
    for (std::size_t top : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                            std::size_t{64}, m - 1, m, m + 7}) {
      const auto got =
          gather::reconstruct_term_profiles(f.u, f.sigma, f.v, rows, f.vocab,
                                            top);
      ASSERT_EQ(got.size(), rows.size());
      for (std::size_t j = 0; j < rows.size(); ++j) {
        const std::string what =
            describe("seed ", seed, " top ", top, " row ", rows[j]);
        const SparseTermVector want =
            oracle_term_profile(f.u, f.sigma, f.v, rows[j], f.vocab, top);
        expect_same_profile(got[j], want, what);
        expect_same_profile(gather::reconstruct_term_profile(
                                f.u, f.sigma, f.v, rows[j], f.vocab, top),
                            want, what + " (one-row wrapper)");
      }
    }
  }
}

TEST(GatherProfileOracle, MagnitudeTiesAtTheCutBreakByTermString) {
  // k = 1 and U = +-1: every profile entry has the same magnitude, so the
  // whole top-k is decided by term string, not by row order.
  const std::vector<std::string> names = {"kiwi", "apple", "mango", "fig",
                                          "banana", "cherry"};
  text::Vocabulary vocab({"kiwi", "apple", "mango"});
  for (std::size_t i = 3; i < names.size(); ++i) vocab.add(names[i]);
  la::DenseMatrix u(names.size(), 1), v(1, 1);
  for (index_t i = 0; i < names.size(); ++i) u(i, 0) = i % 2 ? -1.0 : 1.0;
  v(0, 0) = 0.5;
  const std::vector<double> sigma = {2.0};
  const std::vector<index_t> rows = {0};

  const auto got =
      gather::reconstruct_term_profiles(u, sigma, v, rows, vocab, 3).front();
  // apple(-1), banana(+1), cherry(-1): the three alphabetically first.
  const SparseTermVector want = {
      {"apple", -1.0}, {"banana", 1.0}, {"cherry", -1.0}};
  expect_same_profile(got, want, "ties");
  expect_same_profile(got, oracle_term_profile(u, sigma, v, 0, vocab, 3),
                      "ties vs oracle");
}

TEST(GatherProfileOracle, ZeroRowsGiveEmptyProfiles) {
  const Factors f = random_factors(30, 4, 3, 7);
  const la::DenseMatrix v(2, 3);  // zero-initialized
  const std::vector<index_t> rows = {0, 1};
  for (const auto& p :
       gather::reconstruct_term_profiles(f.u, f.sigma, v, rows, f.vocab)) {
    EXPECT_TRUE(p.empty());
  }
  EXPECT_TRUE(gather::reconstruct_term_profiles(f.u, f.sigma, f.v, {},
                                                f.vocab)
                  .empty());
}

TEST(GatherProfileOracle, CosineWithPrecomputedNormsMatchesTheTwoArgumentForm) {
  const Factors f = random_factors(40, 12, 4, 11);
  std::vector<index_t> rows;
  for (index_t r = 0; r < 12; ++r) rows.push_back(r);
  const auto profiles = gather::reconstruct_term_profiles(f.u, f.sigma, f.v,
                                                          rows, f.vocab, 9);
  for (const auto& a : profiles) {
    for (const auto& b : profiles) {
      EXPECT_EQ(gather::sparse_cosine(a, b, gather::squared_norm(a),
                                      gather::squared_norm(b)),
                gather::sparse_cosine(a, b));
    }
  }
}

// ---------------------------------------------------------------------------
// Facets
// ---------------------------------------------------------------------------

TEST(GatherFacetOracle, OneSweepMatchesThePerTermOracleBitForBit) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t m = 15 + 11 * (seed % 4), n = 20, k = 1 + seed % 6;
    const Factors f = random_factors(m, n, k, 100 + seed);
    core::SemanticSpace space;
    space.u = f.u;
    space.sigma = f.sigma;
    space.v = f.v;
    const std::vector<double>& norms = space.term_norms();
    ASSERT_EQ(norms, gather::term_norms(f.u, f.sigma));
    for (index_t i = 0; i < m; ++i) {
      EXPECT_EQ(norms[i], la::norm2(space.term_coords(i))) << "term " << i;
    }
    const std::vector<std::vector<index_t>> row_sets = {
        {0}, {1, 2, 3}, {4, 4, 9}, {0, 5, 10, 15, 19}};
    for (const auto& rows : row_sets) {
      for (std::size_t top : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              m - 1, m, m + 3}) {
        const std::string what =
            describe("seed ", seed, " top ", top, " rows ", rows.size());
        const auto want =
            oracle_shard_facets(f.u, f.sigma, f.v, f.vocab, rows, top);
        expect_same_facets(gather::shard_facets(f.u, f.sigma, f.v, f.vocab,
                                                rows, top, norms),
                           want, what);
        expect_same_facets(
            gather::shard_facets(f.u, f.sigma, f.v, f.vocab, rows, top), want,
            what + " (wrapper)");
      }
    }
  }
}

TEST(GatherFacetOracle, WeightTiesBreakByTermAndZeroNormTermsAreSkipped) {
  // Rows 0-3 are the same direction (equal cosines, tie broken by term),
  // row 4 is zero (zero norm: never a facet), row 5 points away.
  text::Vocabulary vocab({"delta", "alpha", "echo"});
  vocab.add("bravo");
  vocab.add("zulu");
  vocab.add("charlie");
  la::DenseMatrix u(6, 2), v(1, 2);
  const double rows[6][2] = {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {0, 0}, {-1, -2}};
  for (index_t i = 0; i < 6; ++i) {
    u(i, 0) = rows[i][0];
    u(i, 1) = rows[i][1];
  }
  v(0, 0) = 0.5;
  v(0, 1) = 0.25;
  const std::vector<double> sigma = {2.0, 1.0};
  const std::vector<index_t> docs = {0};
  const auto got = gather::shard_facets(u, sigma, v, vocab, docs, 3,
                                        gather::term_norms(u, sigma));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].term, "alpha");
  EXPECT_EQ(got[1].term, "bravo");
  EXPECT_EQ(got[2].term, "delta");
  expect_same_facets(got, oracle_shard_facets(u, sigma, v, vocab, docs, 3),
                     "ties");
  expect_same_facets(gather::shard_facets(u, sigma, v, vocab, docs, 10),
                     oracle_shard_facets(u, sigma, v, vocab, docs, 10),
                     "all positive terms");
}

TEST(GatherFacetOracle, AllNegativeCosinesAndZeroCentroidGiveNoFacets) {
  util::Rng rng(5);
  const text::Vocabulary vocab = shuffled_vocabulary(12, rng);
  la::DenseMatrix u(12, 3), v(2, 3);
  for (index_t i = 0; i < 12; ++i) {
    for (index_t c = 0; c < 3; ++c) u(i, c) = -0.5 - 0.25 * ((i + c) % 3);
  }
  for (index_t c = 0; c < 3; ++c) v(0, c) = 1.0;  // row 1 stays zero
  const std::vector<double> sigma = {3.0, 2.0, 1.0};
  const auto norms = gather::term_norms(u, sigma);
  EXPECT_TRUE(gather::shard_facets(u, sigma, v, vocab, {0}, 5, norms).empty());
  EXPECT_TRUE(oracle_shard_facets(u, sigma, v, vocab, {0}, 5).empty());
  EXPECT_TRUE(gather::shard_facets(u, sigma, v, vocab, {1}, 5, norms).empty());
  EXPECT_TRUE(gather::shard_facets(u, sigma, v, vocab, {}, 5, norms).empty());
}

TEST(GatherFacetOracle, TermNormsFollowTheDocNormCacheProtocol) {
  const Factors f = random_factors(25, 10, 4, 3);
  core::SemanticSpace space;
  space.u = f.u;
  space.sigma = f.sigma;
  space.v = f.v;
  space.prewarm_doc_norms();
  const std::vector<double> before = space.term_norms();
  ASSERT_EQ(before.size(), 25u);

  // Appending documents leaves U and sigma alone: the cache stays.
  la::DenseMatrix grown(12, 4);
  for (index_t r = 0; r < 12; ++r) {
    for (index_t c = 0; c < 4; ++c) grown(r, c) = r < 10 ? space.v(r, c) : 1.0;
  }
  space.v = grown;
  space.extend_doc_norms(10);
  const core::SemanticSpace copy = space;  // a publish copies it
  EXPECT_EQ(copy.term_norms(), before);

  // A rotation invalidates it and the next read refills from the new U.
  la::scale(space.u.col(0), 2.0);
  space.invalidate_doc_norms();
  EXPECT_EQ(space.term_norms(), gather::term_norms(space.u, space.sigma));
  EXPECT_NE(space.term_norms(), before);
}

// ---------------------------------------------------------------------------
// The profile cache
// ---------------------------------------------------------------------------

TEST(GatherProfileCache, ServesTheSameProfilesAndCountsHitsAndMisses) {
  const Factors f = random_factors(50, 20, 5, 21);
  gather::ProfileCache cache;
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const std::vector<index_t> first = {3, 7, 11};
  const auto a = gather::term_profiles(&cache, f.u, f.sigma, f.v, first,
                                       f.vocab);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(counter_value(sink, "gather.profile_cache.misses"), 3u);
  EXPECT_EQ(counter_value(sink, "gather.profile_cache.hits"), 0u);

  const std::vector<index_t> second = {7, 12, 3};
  const auto b = gather::term_profiles(&cache, f.u, f.sigma, f.v, second,
                                       f.vocab);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(counter_value(sink, "gather.profile_cache.misses"), 4u);
  EXPECT_EQ(counter_value(sink, "gather.profile_cache.hits"), 2u);
  EXPECT_EQ(b[0].get(), a[1].get());  // the cached object itself
  EXPECT_EQ(b[2].get(), a[0].get());

  const auto uncached = gather::term_profiles(nullptr, f.u, f.sigma, f.v,
                                              second, f.vocab);
  for (std::size_t j = 0; j < second.size(); ++j) {
    expect_same_profile(*b[j], *uncached[j], describe("row ", second[j]));
    expect_same_profile(*b[j],
                        oracle_term_profile(f.u, f.sigma, f.v, second[j],
                                            f.vocab),
                        describe("oracle row ", second[j]));
  }
  EXPECT_EQ(counter_value(sink, "gather.profile_cache.misses"), 4u);
}

synth::SyntheticCorpus cache_corpus() {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 8;
  spec.docs_per_topic = 15;
  spec.queries_per_topic = 2;
  spec.seed = 31;
  return synth::generate_corpus(spec);
}

TEST(GatherProfileCache, LivesFromOneConsolidationToTheNext) {
  const auto corpus = cache_corpus();
  const text::Collection head(corpus.docs.begin(), corpus.docs.begin() + 40);
  core::IndexOptions iopts;
  iopts.k = 12;
  core::ConcurrentOptions copts;
  copts.consolidate_every = 0;  // consolidate only when asked
  core::ConcurrentIndexer indexer(core::LsiIndex::try_build(head, iopts).value(),
                                  copts);

  const auto profile_of = [](const core::IndexSnapshot& snap, index_t row) {
    const core::SemanticSpace& sp = snap.space();
    const std::vector<index_t> rows = {row};
    return gather::term_profiles(snap.profile_cache(), sp.u, sp.sigma, sp.v,
                                 rows, snap.context().vocabulary())
        .front();
  };

  const auto base = indexer.snapshot();
  ASSERT_NE(base->profile_cache(), nullptr);
  const auto p0 = profile_of(*base, 0);
  const auto p5 = profile_of(*base, 5);
  EXPECT_EQ(base->profile_cache()->size(), 2u);

  // A fold-in publish carries the cache: the cached objects come back.
  for (std::size_t d = 40; d < 46; ++d) {
    ASSERT_TRUE(indexer.add(corpus.docs[d]).ok());
  }
  indexer.flush();
  const auto folded = indexer.snapshot();
  ASSERT_GT(folded->generation(), base->generation());
  EXPECT_EQ(folded->profile_cache(), base->profile_cache());
  EXPECT_EQ(folded->profile_cache()->size(), 2u);
  EXPECT_EQ(profile_of(*folded, 0).get(), p0.get());
  EXPECT_EQ(profile_of(*folded, 5).get(), p5.get());

  // An appended row gets its profile from the new snapshot's factors.
  const index_t appended = folded->space().num_docs() - 1;
  ASSERT_GE(appended, 40u);
  const core::SemanticSpace& fs = folded->space();
  expect_same_profile(*profile_of(*folded, appended),
                      oracle_term_profile(fs.u, fs.sigma, fs.v, appended,
                                          folded->context().vocabulary()),
                      "appended row");
  EXPECT_EQ(folded->profile_cache()->size(), 3u);

  // A consolidation rotates the basis: the new snapshot starts empty, and
  // the pinned older snapshots keep theirs.
  ASSERT_TRUE(indexer.consolidate().ok());
  const auto consolidated = indexer.snapshot();
  ASSERT_NE(consolidated->profile_cache(), nullptr);
  EXPECT_NE(consolidated->profile_cache(), folded->profile_cache());
  EXPECT_EQ(consolidated->profile_cache()->size(), 0u);
  EXPECT_EQ(folded->profile_cache()->size(), 3u);
  const core::SemanticSpace& cs = consolidated->space();
  expect_same_profile(*profile_of(*consolidated, 0),
                      oracle_term_profile(cs.u, cs.sigma, cs.v, 0,
                                          consolidated->context().vocabulary()),
                      "row 0 after consolidation");
}

// ---------------------------------------------------------------------------
// The sharded rich gather against an oracle replay
// ---------------------------------------------------------------------------

/// try_gather_batch's gather rebuilt from public calls and the oracles:
/// per-shard rank, fuse, per-hit oracle profiles, collapse, per-shard oracle
/// facets, merge. `shards_hit` receives how many shards the fused hits span.
core::ShardedSnapshot::GatherResult oracle_gather(
    const core::ShardedSnapshot& view, const std::string& q,
    const core::SearchOptions& opts, std::size_t* shards_hit) {
  const std::size_t n = view.num_shards();
  std::vector<gather::ShardList> lists(n);
  std::vector<std::vector<core::ScoredDoc>> local(n);
  for (std::size_t s = 0; s < n; ++s) {
    const core::IndexSnapshot& snap = *view.shard(s).snapshot;
    const core::QueryBatch batch = core::QueryBatch::from_term_vectors(
        snap.space(), {snap.context().weighted_term_vector(q)});
    std::vector<core::ScoreMoments> m;
    local[s] = core::BatchedRetriever(snap.space_ptr(), snap.ann())
                   .rank(batch, opts, nullptr, &m)[0];
    for (const core::ScoredDoc& sd : local[s]) {
      lists[s].docs.push_back((*view.shard(s).global_ids)[sd.doc]);
      lists[s].cosines.push_back(sd.cosine);
    }
    lists[s].bg_count = m[0].count;
    lists[s].bg_mean = m[0].mean;
    lists[s].bg_stdev = m[0].stdev;
  }
  const auto fused = gather::fuse(lists, opts.fusion_options(), 0);
  const auto row_of = [&](const gather::FusedHit& h) {
    return local[h.shard][h.rank].doc;
  };
  std::vector<SparseTermVector> profiles;
  std::set<std::size_t> shards;
  for (const gather::FusedHit& h : fused) {
    const core::IndexSnapshot& snap = *view.shard(h.shard).snapshot;
    const core::SemanticSpace& sp = snap.space();
    profiles.push_back(oracle_term_profile(sp.u, sp.sigma, sp.v, row_of(h),
                                           snap.context().vocabulary()));
    shards.insert(h.shard);
  }
  *shards_hit = shards.size();
  auto collapsed =
      gather::collapse_near_duplicates(fused, profiles, opts.collapse_cosine);
  if (collapsed.size() > opts.z) collapsed.resize(opts.z);

  core::ShardedSnapshot::GatherResult out;
  std::vector<std::vector<index_t>> by_shard(n);
  for (const gather::CollapsedHit& ch : collapsed) {
    by_shard[ch.rep.shard].push_back(row_of(ch.rep));
    core::ShardedSnapshot::GatherHit hit;
    hit.doc = ch.rep.doc;
    hit.score = ch.rep.score;
    hit.shard = ch.rep.shard;
    hit.duplicates = ch.duplicates;
    out.hits.push_back(hit);
  }
  std::vector<std::vector<Facet>> shard_lists;
  for (std::size_t s = 0; s < n; ++s) {
    if (by_shard[s].empty()) continue;
    const core::IndexSnapshot& snap = *view.shard(s).snapshot;
    const core::SemanticSpace& sp = snap.space();
    shard_lists.push_back(oracle_shard_facets(sp.u, sp.sigma, sp.v,
                                              snap.context().vocabulary(),
                                              by_shard[s], opts.facets));
  }
  out.facets = gather::merge_facets(shard_lists, opts.facets);
  return out;
}

void expect_same_gather(const core::ShardedSnapshot::GatherResult& got,
                        const core::ShardedSnapshot::GatherResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << what;
  for (std::size_t i = 0; i < got.hits.size(); ++i) {
    EXPECT_EQ(got.hits[i].doc, want.hits[i].doc) << what << " rank " << i;
    EXPECT_EQ(got.hits[i].score, want.hits[i].score) << what << " rank " << i;
    EXPECT_EQ(got.hits[i].shard, want.hits[i].shard) << what << " rank " << i;
    EXPECT_EQ(got.hits[i].duplicates, want.hits[i].duplicates)
        << what << " rank " << i;
  }
  expect_same_facets(got.facets, want.facets, what + " facets");
}

TEST(GatherProfileCache, ConcurrentRichGathersOnAPinnedSnapshotMatchTheOracle) {
  // Copies of the first documents land on other shards under round-robin
  // routing, so collapse folds hits across shards.
  synth::CorpusSpec spec;
  spec.topics = 5;
  spec.concepts_per_topic = 6;
  spec.docs_per_topic = 14;
  spec.queries_per_topic = 3;
  spec.seed = 4242;
  const auto corpus = synth::generate_corpus(spec);
  text::Collection docs = corpus.docs;
  for (std::size_t d = 0; d < 20; ++d) {
    std::string label = "copy";
    label += std::to_string(d);
    docs.push_back({label, corpus.docs[d].body});
  }
  core::ShardingOptions sopts;
  sopts.num_shards = 3;
  sopts.index.k = 12;
  sopts.split_k_budget = false;
  auto sharded = core::ShardedIndex::try_build(docs, sopts).value();
  const core::ShardedSnapshot view = sharded.snapshot();

  core::SearchOptions opts;
  opts.z = 10;
  opts.merge = gather::MergePolicy::kZScore;
  opts.collapse_cosine = 0.9;
  opts.facets = 5;
  std::vector<std::string> texts;
  for (const auto& q : corpus.queries) texts.push_back(q.text);

  // Cold cache first: the library's answers equal the oracle replay.
  const auto cold = view.try_gather_batch(texts, opts).value();
  ASSERT_EQ(cold.size(), texts.size());
  std::size_t multi_shard = 0, folded = 0;
  for (std::size_t q = 0; q < texts.size(); ++q) {
    std::size_t shards_hit = 0;
    const auto want = oracle_gather(view, texts[q], opts, &shards_hit);
    expect_same_gather(cold[q], want, describe("query ", q));
    multi_shard += shards_hit > 1;
    for (const auto& hit : cold[q].hits) folded += hit.duplicates.size();
  }
  EXPECT_GT(multi_shard, 0u);  // batches really mix shards
  EXPECT_GT(folded, 0u);       // and collapse really folds

  // Warm cache, four readers at once on the same pinned snapshot, in
  // different query orders and batch shapes.
  std::vector<std::thread> readers;
  std::vector<std::vector<core::ShardedSnapshot::GatherResult>> seen(
      4, std::vector<core::ShardedSnapshot::GatherResult>(texts.size()));
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        if (t % 2 == 1) {  // the whole query set as one batch
          seen[t] = view.try_gather_batch(texts, opts).value();
          continue;
        }
        for (std::size_t q = 0; q < texts.size(); ++q) {
          const std::size_t at = (q + 5 * t) % texts.size();
          seen[t][at] = std::move(view.try_gather_batch({texts[at]}, opts)
                                      .value()
                                      .front());
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t q = 0; q < texts.size(); ++q) {
      expect_same_gather(seen[t][q], cold[q],
                         describe("reader ", t, " query ", q));
    }
  }
}

}  // namespace
