// Sparse Equation 6 from the tokenizer to the projection: queries and
// ingested documents travel as sorted (row, value) pairs, are weighted over
// their nonzeros, and are projected by the one O(nnz k) loop
// (core::project_sparse). The contracts checked here:
//   * the sparse text path equals the dense one it replaced, bit for bit,
//     for every local weight and parser option;
//   * the sparse projection equals the dense scalar dot U_k^T q / sigma bit
//     for bit, under every kernel, so projected queries are kernel-invariant;
//   * the batched sweep's L1 sub-tiling leaves every score unchanged for any
//     batch size, on the fp64 and the bf16 store;
//   * incremental consolidation over sparse pending documents reproduces the
//     dense bookkeeping exactly;
//   * measured projection flops are 2 nnz k + k b, the flop model's value.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/med_topics.hpp"
#include "la/kernels.hpp"
#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "lsi/flops.hpp"
#include "lsi/folding.hpp"
#include "lsi/incremental.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/update.hpp"
#include "synth/corpus.hpp"
#include "synth/sparse_random.hpp"
#include "text/parser.hpp"
#include "text/stemmer.hpp"
#include "text/stopwords.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi;
using namespace lsi::core;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_bits(std::span<const double> got,
                      std::span<const double> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i], want[i]))
        << what << " [" << i << "] " << got[i] << " vs " << want[i];
  }
}

/// Every kernel this binary can run, so each test covers both legs.
std::vector<std::string> runnable_kernels() {
  std::vector<std::string> names{"portable"};
  if (la::kern::cpu_has_avx2() && la::kern::avx2() != nullptr) {
    names.push_back("avx2");
  }
  return names;
}

/// Restores "auto" so a forced kernel never leaks into other tests.
struct ForceGuard {
  ~ForceGuard() { la::kern::force("auto"); }
};

// --- dense oracles: the term-vector code the sparse path replaced ----------

std::vector<std::string> oracle_tokens(std::string_view body,
                                       const text::ParserOptions& opts) {
  std::vector<std::string> tokens = text::tokenize(body, opts.tokenizer);
  if (opts.remove_stopwords) {
    std::erase_if(tokens,
                  [](const std::string& t) { return text::is_stopword(t); });
  }
  if (opts.stem) {
    for (auto& t : tokens) t = text::porter_stem(t);
  }
  if (opts.add_bigrams && tokens.size() >= 2) {
    const std::size_t unigrams = tokens.size();
    for (std::size_t i = 0; i + 1 < unigrams; ++i) {
      tokens.push_back(tokens[i] + "_" + tokens[i + 1]);
    }
  }
  return tokens;
}

la::Vector oracle_counts(const text::Vocabulary& vocab, std::string_view body,
                         const text::ParserOptions& opts) {
  la::Vector q(vocab.size(), 0.0);
  for (const auto& token : oracle_tokens(body, opts)) {
    auto row = vocab.find(token);
    if (!row && opts.fold_plurals && token.size() >= 4 &&
        token.back() == 's') {
      row = vocab.find(token.substr(0, token.size() - 1));
    }
    if (row) q[*row] += 1.0;
  }
  return q;
}

la::Vector oracle_weighted(const la::Vector& tf, const std::vector<double>& g,
                           weighting::LocalWeight l) {
  double max_tf = 0.0;
  for (double v : tf) max_tf = std::max(max_tf, v);
  la::Vector out(tf.size(), 0.0);
  for (std::size_t i = 0; i < tf.size(); ++i) {
    if (tf[i] <= 0.0) continue;
    double lw = tf[i];
    switch (l) {
      case weighting::LocalWeight::kRawTf:
        lw = tf[i];
        break;
      case weighting::LocalWeight::kBinary:
        lw = 1.0;
        break;
      case weighting::LocalWeight::kLog:
        lw = std::log2(1.0 + tf[i]);
        break;
      case weighting::LocalWeight::kAugmented:
        lw = 0.5 + 0.5 * tf[i] / max_tf;
        break;
    }
    out[i] = lw * g[i];
  }
  return out;
}

/// U_k^T q / sigma as a dense scalar dot over all m rows: the projection
/// before it went sparse.
la::Vector oracle_projection(const SemanticSpace& space,
                             std::span<const double> q) {
  la::Vector out(space.k());
  for (index_t i = 0; i < space.k(); ++i) {
    double acc = 0.0;
    const auto u_i = space.u.col(i);
    for (index_t r = 0; r < space.num_terms(); ++r) acc += u_i[r] * q[r];
    out[i] = space.sigma[i] > 0.0 ? acc / space.sigma[i] : 0.0;
  }
  return out;
}

/// A random m x k space (no SVD: shapes are what these tests exercise).
SemanticSpace random_space(index_t m, index_t n, index_t k,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  SemanticSpace space;
  space.u = la::DenseMatrix(m, k);
  space.v = la::DenseMatrix(n, k);
  space.sigma.resize(k);
  for (index_t j = 0; j < k; ++j) {
    for (auto& x : space.u.col(j)) x = rng.normal();
    for (auto& x : space.v.col(j)) x = rng.normal();
    space.sigma[j] = 10.0 / static_cast<double>(j + 1);
  }
  return space;
}

std::vector<la::SparseVector> random_queries(index_t m, std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<la::SparseVector> out(count);
  for (auto& q : out) {
    la::Vector dense(m, 0.0);
    for (int t = 0; t < 6; ++t) dense[rng.uniform_index(m)] = rng.normal();
    q = la::SparseVector::from_dense(dense);
  }
  return out;
}

// --- text and weighting -----------------------------------------------------

TEST(SparseText, TermCountsMatchDenseOnMedQueriesForEveryOption) {
  std::vector<std::string> texts{data::kQueryText,
                                 "blood blood blood pressure",
                                 "zebra quantum xylophone",  // all OOV
                                 "",
                                 "cultures culture rats patients Blood"};
  for (const auto& doc : data::med_all_topics()) texts.push_back(doc.body);

  std::vector<text::ParserOptions> parsers(4);
  parsers[1].fold_plurals = true;
  parsers[2].stem = true;
  parsers[3].add_bigrams = true;
  parsers[3].fold_plurals = true;
  for (std::size_t pi = 0; pi < parsers.size(); ++pi) {
    const text::TermDocumentMatrix tdm =
        text::build_term_document_matrix(data::med_all_topics(), parsers[pi]);
    for (const auto& t : texts) {
      const la::SparseVector got =
          text::term_counts(tdm.vocabulary, t, parsers[pi]);
      ASSERT_EQ(got.rows.size(), got.values.size());
      for (std::size_t p = 1; p < got.rows.size(); ++p) {
        ASSERT_LT(got.rows[p - 1], got.rows[p]) << "parser " << pi;
      }
      const la::Vector want = oracle_counts(tdm.vocabulary, t, parsers[pi]);
      expect_same_bits(got.to_dense(tdm.vocabulary.size()), want,
                       "parser " + std::to_string(pi) + " text '" + t + "'");
      expect_same_bits(text::text_to_term_vector(tdm, t, parsers[pi]), want,
                       "dense wrapper, parser " + std::to_string(pi));
    }
  }
}

TEST(SparseText, WeightedTermsMatchDenseForEveryScheme) {
  std::vector<std::string> texts{data::kQueryText, "blood blood children",
                                 "abnormalities abnormalities abnormalities "
                                 "age blood",
                                 "no indexed words here"};
  for (const auto& doc : data::med_update_topics()) texts.push_back(doc.body);
  for (const bool fold : {false, true}) {
    for (const weighting::Scheme& scheme : weighting::all_schemes()) {
      IndexOptions opts;
      opts.k = 4;
      opts.scheme = scheme;
      opts.parser.fold_plurals = fold;
      const LsiIndex index =
          LsiIndex::try_build(data::med_topics(), opts).value();
      const SnapshotQueryContext ctx(index.vocabulary(), opts.parser, scheme,
                                     index.global_weights());
      const std::string what = weighting::name(scheme) +
                               (fold ? " fold" : "");
      for (const auto& t : texts) {
        const la::Vector want = oracle_weighted(
            oracle_counts(index.vocabulary(), t, opts.parser),
            index.global_weights(), scheme.local);
        const index_t m = index.vocabulary().size();
        expect_same_bits(index.weighted_terms(t).to_dense(m), want, what);
        expect_same_bits(index.weighted_term_vector(t), want, what);
        expect_same_bits(ctx.weighted_terms(t).to_dense(m), want, what);
        expect_same_bits(ctx.weighted_term_vector(t), want, what);
        for (double v : ctx.weighted_terms(t).values) EXPECT_NE(v, 0.0);
      }
    }
  }
}

TEST(SparseText, VocabularyFindsViewsWithoutCopies) {
  text::Vocabulary vocab({"blood", "bloods", "pressure"});
  const std::string text = "bloodsxpressure";
  EXPECT_EQ(vocab.find(std::string_view(text).substr(0, 5)), 0u);
  EXPECT_EQ(vocab.find(std::string_view(text).substr(0, 6)), 1u);
  EXPECT_EQ(vocab.find(std::string_view(text).substr(7)), 2u);
  EXPECT_FALSE(vocab.find(std::string_view(text).substr(0, 4)).has_value());
  EXPECT_EQ(vocab.add("pressure"), 2u);
  EXPECT_EQ(vocab.add("age"), 3u);
  EXPECT_EQ(vocab.find("age"), 3u);
}

// --- projection -------------------------------------------------------------

TEST(SparseProjection, BitIdenticalToDenseDotUnderEveryKernel) {
  ForceGuard guard;
  const index_t m = 61;  // not a multiple of 4
  SemanticSpace space = random_space(m, 30, 7, 5);
  space.sigma[3] = 0.0;  // a zero singular value maps to zero

  std::vector<la::SparseVector> queries = random_queries(m, 12, 9);
  queries.push_back({});                               // all OOV: empty
  queries.push_back({{0, m - 1}, {2.5, -1.25}});       // first and last row
  queries.push_back({{0}, {1.0}});                     // one term
  la::SparseVector full;                               // every row
  for (index_t r = 0; r < m; ++r) {
    full.rows.push_back(r);
    full.values.push_back(std::sin(1.0 + r));
  }
  queries.push_back(full);

  for (const auto& name : runnable_kernels()) {
    ASSERT_TRUE(la::kern::force(name));
    const QueryBatch batch = QueryBatch::from_sparse(space, queries);
    std::vector<la::Vector> dense;
    for (const auto& q : queries) dense.push_back(q.to_dense(m));
    const QueryBatch wrapped = QueryBatch::from_term_vectors(space, dense);
    for (std::size_t b = 0; b < queries.size(); ++b) {
      const std::string what = name + " query " + std::to_string(b);
      const la::Vector want = oracle_projection(space, dense[b]);
      expect_same_bits(batch.projected().col(b), want, what);
      expect_same_bits(wrapped.projected().col(b), want, what);
      expect_same_bits(project_query(space, dense[b]), want, what);
      la::Vector direct(space.k());
      project_sparse(space, queries[b].rows, queries[b].values, direct);
      expect_same_bits(direct, want, what);
      EXPECT_EQ(batch.projected()(3, b), 0.0) << what;
    }
  }
}

TEST(SparseProjection, RepeatedTokensProjectLikeTheirCounts) {
  IndexOptions opts;
  opts.k = 4;
  const LsiIndex index = LsiIndex::try_build(data::med_topics(), opts).value();
  const la::SparseVector once = index.weighted_terms("blood pressure");
  const la::SparseVector thrice =
      index.weighted_terms("blood blood blood pressure");
  ASSERT_EQ(once.rows, thrice.rows);
  const la::Vector want =
      oracle_projection(index.space(), index.weighted_term_vector(
                                           "blood blood blood pressure"));
  expect_same_bits(index.project("blood blood blood pressure"), want,
                   "project");
  expect_same_bits(
      QueryBatch::from_sparse(index.space(), {thrice}).projected().col(0),
      want, "batch");
}

TEST(SparseProjection, ExactRankingIsKernelInvariant) {
  // The dense GEMM's per-kernel reduction trees made projected queries, and
  // so every cosine, differ by a few ULPs between portable and avx2. The
  // scalar sparse projection feeds the bit-identical elementwise sweep, so
  // the whole exact path now gives the same bits under every kernel.
  ForceGuard guard;
  const auto names = runnable_kernels();
  if (names.size() < 2) GTEST_SKIP() << "only one kernel can run here";
  auto a = synth::random_sparse_matrix(300, 700, 0.05, 21);
  for (const bool bf16 : {false, true}) {
    SemanticSpace space = try_build_semantic_space(a, 12).value();
    space.set_compress_docs(bf16);
    std::vector<la::Vector> queries;
    for (const auto& q : random_queries(300, 9, 23)) {
      queries.push_back(q.to_dense(300));
    }
    SearchOptions opts;
    opts.search = SearchMode::kExact;
    opts.z = 0;  // every document, so every cosine is compared
    std::vector<std::vector<std::vector<ScoredDoc>>> per_kernel;
    for (const auto& name : names) {
      ASSERT_TRUE(la::kern::force(name));
      const QueryBatch batch = QueryBatch::from_term_vectors(space, queries);
      per_kernel.push_back(BatchedRetriever(space).rank(batch, opts));
    }
    for (std::size_t b = 0; b < queries.size(); ++b) {
      ASSERT_EQ(per_kernel[0][b].size(), per_kernel[1][b].size());
      for (std::size_t r = 0; r < per_kernel[0][b].size(); ++r) {
        EXPECT_EQ(per_kernel[0][b][r].doc, per_kernel[1][b][r].doc);
        EXPECT_TRUE(same_bits(per_kernel[0][b][r].cosine,
                              per_kernel[1][b][r].cosine))
            << (bf16 ? "bf16" : "fp64") << " query " << b << " rank " << r;
      }
    }
  }
}

TEST(SparseProjection, CheckedConstructorRejectsMalformedVectors) {
  const SemanticSpace space = random_space(20, 10, 3, 1);
  const auto rejects = [&](la::SparseVector bad, const char* what) {
    const auto got = QueryBatch::try_from_sparse(space, {{{1}, {1.0}}, bad});
    ASSERT_FALSE(got.ok()) << what;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(got.status().message().find("sparse term vector 1"),
              std::string::npos)
        << got.status().message();
  };
  rejects({{3, 2}, {1.0, 1.0}}, "unsorted");
  rejects({{2, 2}, {1.0, 1.0}}, "duplicate");
  rejects({{4, 20}, {1.0, 1.0}}, "out of range");
  rejects({{4, 5}, {1.0}}, "length mismatch");

  const auto ok = QueryBatch::try_from_sparse(space, {{{0, 19}, {1.0, 2.0}},
                                                      {}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().size(), 2u);
  const auto empty = QueryBatch::try_from_sparse(space, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().size(), 0u);
}

TEST(SparseProjection, MeasuredFlopsMatchTheModelExactly) {
  const index_t m = 200, n = 90, k = 11;
  const SemanticSpace space = random_space(m, n, k, 3);
  const auto queries = random_queries(m, 7, 4);
  QueryStats stats;
  const QueryBatch batch = QueryBatch::from_sparse(space, queries, &stats);
  FlopModelParams fp;
  fp.m = m;
  fp.n = n;
  fp.k = k;
  fp.b = queries.size();
  for (const auto& q : queries) fp.nnz_q += q.nnz();
  EXPECT_EQ(stats.flops, flops_batch_project(fp));

  // Random factors give no zero sweep weight, so the dense score model
  // applies too and the whole exact pass matches the model.
  SearchOptions opts;
  opts.search = SearchMode::kExact;
  BatchedRetriever(space).rank(batch, opts, &stats);
  EXPECT_EQ(stats.flops, flops_batch_project(fp) + flops_batch_score(fp));
}

// --- batched sweep sub-tiles -------------------------------------------------

TEST(SweepTiles, ScoresIdenticalForEveryBatchSize) {
  // n spans several sub-tiles for every B > 4 (the tile shrinks as B grows)
  // and several parallel chunks; B = 1 sweeps each chunk whole.
  const index_t m = 80, n = 1500, k = 13;
  for (const bool bf16 : {false, true}) {
    SemanticSpace space = random_space(m, n, k, 31);
    space.set_compress_docs(bf16);
    const auto queries = random_queries(m, 200, 37);
    const BatchedRetriever retriever(space);
    std::vector<la::Vector> alone;
    for (const auto& q : queries) {
      const la::DenseMatrix c = retriever.scores(
          QueryBatch::from_sparse(space, {q}), SimilarityMode::kColumnSpace);
      alone.emplace_back(c.col(0).begin(), c.col(0).end());
    }
    for (const std::size_t bsz : {1u, 3u, 4u, 5u, 32u, 33u, 200u}) {
      for (std::size_t lo = 0; lo < queries.size(); lo += bsz) {
        const std::size_t hi = std::min(queries.size(), lo + bsz);
        const std::vector<la::SparseVector> block(queries.begin() + lo,
                                                  queries.begin() + hi);
        const la::DenseMatrix c = retriever.scores(
            QueryBatch::from_sparse(space, block),
            SimilarityMode::kColumnSpace);
        for (std::size_t b = 0; b < block.size(); ++b) {
          expect_same_bits(c.col(b), alone[lo + b],
                           std::string(bf16 ? "bf16" : "fp64") + " B=" +
                               std::to_string(bsz) + " query " +
                               std::to_string(lo + b));
        }
      }
    }
  }
}

// --- write path -------------------------------------------------------------

void expect_same_space(const SemanticSpace& got, const SemanticSpace& want) {
  expect_same_bits(got.sigma, want.sigma, "sigma");
  ASSERT_TRUE(got.u.same_shape(want.u));
  ASSERT_TRUE(got.v.same_shape(want.v));
  for (index_t j = 0; j < got.k(); ++j) {
    expect_same_bits(got.u.col(j), want.u.col(j), "u col " +
                                                      std::to_string(j));
    expect_same_bits(got.v.col(j), want.v.col(j), "v col " +
                                                      std::to_string(j));
  }
}

TEST(SparseIngest, ConsolidationMatchesDensePendingBookkeeping) {
  synth::CorpusSpec spec;
  spec.topics = 4;
  spec.concepts_per_topic = 8;
  spec.docs_per_topic = 15;
  spec.seed = 5;
  const auto corpus = synth::generate_corpus(spec);
  const text::Collection head(corpus.docs.begin(), corpus.docs.begin() + 36);
  IndexOptions iopts;
  iopts.k = 10;
  const LsiIndex base = LsiIndex::try_build(head, iopts).value();

  for (const bool exact : {false, true}) {
    IncrementalOptions opts;
    opts.consolidate_every = 7;
    opts.exact_update = exact;
    IncrementalIndexer indexer(base, opts);
    const std::span<const text::Document> tail(corpus.docs.data() + 36,
                                               corpus.docs.size() - 36);
    indexer.add(tail.subspan(0, 5));   // fold only
    indexer.add(tail.subspan(5, 11));  // crosses two consolidations
    indexer.add(tail.subspan(16, 3));  // leaves pending documents folded

    // The dense bookkeeping the sparse pending columns replaced.
    LsiIndex ref = base;
    std::vector<la::Vector> pending;
    const auto fold_dense = [&](std::span<const text::Document> docs) {
      la::CooBuilder batch(ref.space().num_terms(), docs.size());
      for (std::size_t c = 0; c < docs.size(); ++c) {
        la::Vector w = ref.weighted_term_vector(docs[c].body);
        for (index_t i = 0; i < w.size(); ++i) {
          if (w[i] != 0.0) batch.add(i, c, w[i]);
        }
        pending.push_back(std::move(w));
        ref.mutable_labels().push_back(docs[c].label);
      }
      fold_in_documents(ref.mutable_space(), batch.to_csc());
    };
    const auto consolidate_dense = [&] {
      SemanticSpace& space = ref.mutable_space();
      const std::size_t p = pending.size();
      la::DenseMatrix v(space.num_docs() - p, space.k());
      for (index_t j = 0; j < space.k(); ++j) {
        for (index_t i = 0; i < v.rows(); ++i) v(i, j) = space.v(i, j);
      }
      space.v = std::move(v);
      space.invalidate_doc_norms();
      la::CooBuilder batch(space.num_terms(), p);
      for (std::size_t c = 0; c < p; ++c) {
        for (index_t i = 0; i < pending[c].size(); ++i) {
          if (pending[c][i] != 0.0) batch.add(i, c, pending[c][i]);
        }
      }
      if (exact) {
        update_documents_exact(space, batch.to_csc());
      } else {
        update_documents(space, batch.to_csc());
      }
      pending.clear();
    };
    fold_dense(tail.subspan(0, 5));
    fold_dense(tail.subspan(5, 2));
    consolidate_dense();
    fold_dense(tail.subspan(7, 7));
    consolidate_dense();
    fold_dense(tail.subspan(14, 2));
    fold_dense(tail.subspan(16, 3));

    EXPECT_EQ(indexer.consolidations(), 2u);
    EXPECT_EQ(indexer.pending(), pending.size());
    expect_same_space(indexer.index().space(), ref.space());
    EXPECT_EQ(indexer.index().doc_labels(), ref.doc_labels());

    indexer.consolidate();
    consolidate_dense();
    expect_same_space(indexer.index().space(), ref.space());
  }
}

TEST(SparseIngest, AddDocumentsMatchesDenseColumns) {
  IndexOptions opts;
  opts.k = 4;
  const LsiIndex base = LsiIndex::try_build(data::med_topics(), opts).value();
  for (const auto method : {AddMethod::kFoldIn, AddMethod::kSvdUpdate}) {
    LsiIndex got = base;
    got.add_documents(data::med_update_topics(), method);

    SemanticSpace want = base.space();
    la::CooBuilder batch(want.num_terms(), data::med_update_topics().size());
    for (std::size_t d = 0; d < data::med_update_topics().size(); ++d) {
      const la::Vector w =
          base.weighted_term_vector(data::med_update_topics()[d].body);
      for (index_t i = 0; i < w.size(); ++i) {
        if (w[i] != 0.0) batch.add(i, d, w[i]);
      }
    }
    if (method == AddMethod::kFoldIn) {
      fold_in_documents(want, batch.to_csc());
    } else {
      update_documents(want, batch.to_csc());
    }
    expect_same_space(got.space(), want);
  }
}

}  // namespace
