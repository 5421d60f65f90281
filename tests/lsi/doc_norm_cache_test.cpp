// Regression tests for the per-mode lazy doc-norm cache on SemanticSpace:
// staleness after fold-in and SVD-update (the scores served after a mutation
// must equal a from-scratch recompute), the append-extension fast path
// (bit-identical to invalidate-and-refill), the hit/miss/extend accounting
// the observability layer reports, and the two norm slots the fp64 cache and
// the bf16 store share.

#include <gtest/gtest.h>

#include "lsi/doc_store.hpp"
#include "lsi/folding.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/update.hpp"
#include "obs/trace.hpp"
#include "synth/corpus.hpp"
#include "synth/sparse_random.hpp"

namespace {

using namespace lsi;

core::SemanticSpace small_space(std::uint64_t seed, la::index_t k = 6) {
  const la::CscMatrix a = synth::random_sparse_matrix(40, 25, 0.15, seed);
  return core::try_build_semantic_space(a, k).value();
}

std::uint64_t counter_value(const obs::Sink& sink, const std::string& name) {
  for (const auto& [n, v] : sink.metrics().counters()) {
    if (n == name) return v;
  }
  return 0;
}

void expect_same_norms(const core::SemanticSpace& a,
                       const core::SemanticSpace& b) {
  for (std::size_t m = 0; m < core::kNumSimilarityModes; ++m) {
    const auto mode = static_cast<core::SimilarityMode>(m);
    const auto& na = a.doc_norms(mode);
    const auto& nb = b.doc_norms(mode);
    ASSERT_EQ(na.size(), nb.size()) << "mode " << m;
    for (std::size_t j = 0; j < na.size(); ++j) {
      EXPECT_EQ(na[j], nb[j]) << "mode " << m << " doc " << j;
    }
  }
}

// The historical hazard this file guards against: serve queries (warming the
// cache), fold new documents in, serve again. The second round must score
// against norms for *all* documents, not a stale prefix.
TEST(DocNormCache, ScoresStayFreshAfterFoldIn) {
  core::SemanticSpace space = small_space(7);
  space.prewarm_doc_norms();  // simulate an earlier query burst
  const la::index_t before = space.num_docs();

  const la::CscMatrix d = synth::random_sparse_matrix(40, 6, 0.2, 8);
  core::fold_in_documents(space, d);
  ASSERT_EQ(space.num_docs(), before + 6);

  // Reference: same space, caches dropped, refilled from scratch.
  core::SemanticSpace fresh = space;
  fresh.invalidate_doc_norms();
  expect_same_norms(space, fresh);

  // And the norms actually feed correct rankings for the appended docs.
  la::Vector query(40, 0.0);
  query[3] = 1.0;
  query[11] = 2.0;
  const auto warm = core::retrieve(space, query);
  const auto cold = core::retrieve(fresh, query);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].doc, cold[i].doc);
    EXPECT_EQ(warm[i].cosine, cold[i].cosine);
  }
}

// fold_in_documents on a warm cache takes the O(p k) append-extension path
// (counted as "extend"), not an O(n k) refill (counted as "miss" + "fill").
TEST(DocNormCache, FoldInExtendsWarmCachesInsteadOfRefilling) {
  core::SemanticSpace space = small_space(9);
  space.prewarm_doc_norms();

  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const la::CscMatrix d = synth::random_sparse_matrix(40, 4, 0.2, 10);
  core::fold_in_documents(space, d);
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.extend"),
            4u * core::kNumDocNormVectors);

  space.prewarm_doc_norms();  // all three modes must now be pure hits
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.hit"),
            core::kNumSimilarityModes);
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.miss"), 0u);
}

// The two sigma-scaled modes divide by the same ||v_j sigma||: one vector,
// filled once, serves both with the same bits.
TEST(DocNormCache, SigmaScaledModesShareOneNormVector) {
  core::SemanticSpace space = small_space(17);
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const auto& column_space =
      space.doc_norms(core::SimilarityMode::kColumnSpace);
  const auto& projected = space.doc_norms(core::SimilarityMode::kProjected);
  EXPECT_EQ(&column_space, &projected);
  ASSERT_EQ(projected.size(), space.num_docs());
  for (std::size_t j = 0; j < space.num_docs(); ++j) {
    EXPECT_EQ(column_space[j], projected[j]) << "doc " << j;
    EXPECT_EQ(projected[j], la::norm2(space.doc_coords(j))) << "doc " << j;
  }
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.miss"), 1u);
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.hit"), 1u);

  space.prewarm_doc_norms();  // only the plain-V vector is still cold
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.miss"),
            core::kNumDocNormVectors);
}

// The bf16 store keeps the same two slots: its sigma-scaled modes divide by
// one decoded-value vector, and kPlainV by another.
TEST(DocNormCache, Bf16StoreSigmaScaledModesShareOneNormVector) {
  const core::SemanticSpace space = small_space(19);
  const auto store = core::Bf16DocStore::build(space);
  const auto& column_space =
      store->doc_norms(core::SimilarityMode::kColumnSpace);
  EXPECT_EQ(&column_space,
            &store->doc_norms(core::SimilarityMode::kProjected));
  EXPECT_NE(&column_space, &store->doc_norms(core::SimilarityMode::kPlainV));
  EXPECT_EQ(column_space.size(), space.num_docs());
}

// Cold caches stay cold across a fold-in: extension must not eagerly build
// norms nobody asked for (the lazy contract).
TEST(DocNormCache, ColdCachesStayLazyAcrossFoldIn) {
  core::SemanticSpace space = small_space(11);

  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const la::CscMatrix d = synth::random_sparse_matrix(40, 3, 0.2, 12);
  core::fold_in_documents(space, d);
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.extend"), 0u);

  // First use is still a (correct, full-length) lazy fill.
  const auto& norms = space.doc_norms(core::SimilarityMode::kColumnSpace);
  EXPECT_EQ(norms.size(), space.num_docs());
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.miss"), 1u);
}

// SVD-update rotates existing V rows, so the warm cache must be dropped and
// rebuilt — scoring after update_documents equals a from-scratch recompute.
TEST(DocNormCache, SvdUpdateInvalidatesWarmCache) {
  auto corpus = [] {
    synth::CorpusSpec spec;
    spec.topics = 3;
    spec.concepts_per_topic = 6;
    spec.docs_per_topic = 12;
    spec.seed = 13;
    return synth::generate_corpus(spec);
  }();
  core::IndexOptions opts;
  opts.k = 8;
  text::Collection head(corpus.docs.begin(), corpus.docs.end() - 4);
  auto index = core::LsiIndex::try_build(head, opts).value();
  index.space().prewarm_doc_norms();

  text::Collection tail(corpus.docs.end() - 4, corpus.docs.end());
  index.add_documents(tail, core::AddMethod::kSvdUpdate);

  core::SemanticSpace fresh = index.space();
  fresh.invalidate_doc_norms();
  expect_same_norms(index.space(), fresh);
}

// Same-length mutations (reweighting every entry of V via a new sigma, say)
// are exactly what the row-count guard cannot catch; extend_doc_norms must
// also refuse to "extend" across a shrink or a length mismatch.
TEST(DocNormCache, ExtendRefusesLengthMismatchedCaches) {
  core::SemanticSpace space = small_space(15);
  space.prewarm_doc_norms();
  const la::index_t n = space.num_docs();

  // Claiming the pre-append count was n-2 while the cache holds n entries:
  // the cache is length-stale for that history and must be dropped, then
  // lazily refilled at full length on next use.
  space.extend_doc_norms(n - 2);
  obs::Sink sink;
  obs::ScopedSink scoped(&sink);
  const auto& norms = space.doc_norms(core::SimilarityMode::kProjected);
  EXPECT_EQ(norms.size(), n);
  EXPECT_EQ(counter_value(sink, "retrieval.norm_cache.miss"), 1u);

  // A claimed pre-append count larger than the current V ("append" shrank
  // the matrix, as consolidation's truncate-then-update does) also drops.
  core::SemanticSpace shrunk = small_space(16);
  shrunk.prewarm_doc_norms();
  shrunk.extend_doc_norms(shrunk.num_docs() + 5);
  obs::Sink sink2;
  obs::ScopedSink scoped2(&sink2);
  (void)shrunk.doc_norms(core::SimilarityMode::kPlainV);
  EXPECT_EQ(counter_value(sink2, "retrieval.norm_cache.miss"), 1u);
}

}  // namespace
