// Writes the MEDLINE example collection (the paper's Table 2, k = 2) as an
// .lsidb that stores no document labels — a shape the loader accepts — so
// the lsi_cli ctests can query one:
//
//   make_unlabeled_db <out.lsidb>

#include <cstdio>

#include "data/med_topics.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"

using namespace lsi;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out.lsidb>\n", argv[0]);
    return 2;
  }
  core::IndexOptions opts;
  opts.k = 2;
  const auto index =
      core::LsiIndex::try_build(data::med_topics(), opts).value();

  core::LsiDatabase db;
  db.space = index.space();
  db.vocabulary = index.vocabulary();
  db.scheme = index.options().scheme;
  db.global_weights = index.global_weights();
  const Status saved = core::try_save_database_file(argv[1], db);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.to_string().c_str());
    return 1;
  }
  return 0;
}
