// Regenerates tests/data/golden_k5.lsidb and prints the constants that
// tests/lsi/io_golden_test.cpp hardcodes. Build on demand (not part of ALL):
//
//   cmake --build build --target make_golden_fixture
//   ./build/tests/make_golden_fixture tests/data/golden_k5.lsidb
//
// Only rerun this when the database format version is bumped intentionally;
// commit the regenerated fixture and the updated test constants together.

#include <cstdio>

#include "lsi/concurrent.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/retrieval.hpp"
#include "synth/corpus.hpp"

using namespace lsi;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out.lsidb>\n", argv[0]);
    return 2;
  }

  synth::CorpusSpec spec;
  spec.topics = 3;
  spec.concepts_per_topic = 7;
  spec.docs_per_topic = 12;  // 36 documents
  spec.queries_per_topic = 1;
  spec.seed = 20240806;
  const auto corpus = synth::generate_corpus(spec);

  core::IndexOptions opts;
  opts.k = 5;
  const auto index = core::LsiIndex::try_build(corpus.docs, opts).value();

  core::LsiDatabase db;
  db.space = index.space();
  db.vocabulary = index.vocabulary();
  db.doc_labels = index.doc_labels();
  db.scheme = index.options().scheme;
  db.global_weights = index.global_weights();
  const Status saved = core::try_save_database_file(argv[1], db);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.to_string().c_str());
    return 1;
  }

  std::printf("fixture      : %s\n", argv[1]);
  std::printf("k            : %zu\n", db.space.k());
  std::printf("num_terms    : %zu\n", db.space.num_terms());
  std::printf("num_docs     : %zu\n", db.space.num_docs());
  std::printf("vocab size   : %zu\n", db.vocabulary.size());
  std::printf("labels       : %s .. %s\n", db.doc_labels.front().c_str(),
              db.doc_labels.back().c_str());
  std::printf("query        : %s\n", corpus.queries[0].text.c_str());

  const core::SnapshotQueryContext ctx(db.vocabulary, opts.parser, db.scheme,
                                       db.global_weights);
  core::SearchOptions qopts;
  qopts.z = 10;
  const auto hits =
      core::retrieve(db.space, ctx.weighted_term_vector(corpus.queries[0].text),
                     qopts);
  for (const auto& hit : hits) {
    std::printf("  {\"%s\", %.16f},\n", db.doc_labels[hit.doc].c_str(),
                hit.cosine);
  }
  return 0;
}
