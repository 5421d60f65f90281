// lsi_cli: the command-line face of the library — build an LSI database
// from a TSV collection, query it, add documents, and inspect term
// neighborhoods, without writing any C++.
//
//   lsi_cli build  <docs.tsv> <db.lsi> [--k N] [--scheme raw|log-entropy]
//                  [--min-df N] [--stem] [--bigrams] [--dense-cutoff N]
//                  [--probe "free text"]
//   lsi_cli query  <db.lsi> "free text..." [--top N] [--threshold C]
//                  [--<knob> V ...]
//   lsi_cli query  <db.lsi> --batch-queries <queries.txt> [--top N]
//                  [--threshold C] [--<knob> V ...]
//                                         (one query per line, answered
//                                         together as one batch)
//   lsi_cli terms  <db.lsi> <term> [--top N]
//   lsi_cli add    <db.lsi> <more.tsv>          (fold-in, writes in place)
//   lsi_cli info   <db.lsi>
//
// query and shard-stats --probe take every /search knob (core::kSearchKnobs)
// as a --<name> V flag, checked by the daemon's own parse_search_knobs, and
// answer through the daemon's read body (ShardedSnapshot::try_gather_batch):
// query serves the database as a one-shard view.
//
// docs.tsv: one document per line, "label<TAB>text". The literal path
// `@med` names the built-in MEDLINE example collection (the paper's
// Table 2), so the full pipeline runs without any input files.
//
// Every command accepts `--stats[=json|csv]`: an observability sink is
// installed for the whole run and the aggregated stats document (spans with
// p50/p95 latencies, counters, predicted-vs-measured flops) is printed to
// stdout after the command output. `build --dense-cutoff 0 --probe ...`
// exercises the instrumented Lanczos solver and the retrieval engine in one
// process, so the document shows build, lanczos, and retrieval spans side
// by side.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/med_topics.hpp"
#include "la/kernels.hpp"
#include "lsi/lsi.hpp"
#include "serve/server.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lsi;

// --stats state for the whole run: commands append problem-shape params and
// predicted-vs-measured flop rows; main() assembles and prints the document.
obs::Sink* g_sink = nullptr;
std::vector<std::pair<std::string, double>> g_params;
std::vector<obs::FlopComparison> g_flops;

void stat_param(const std::string& name, double v) {
  if (g_sink) g_params.emplace_back(name, v);
}

std::uint64_t counter_value(const obs::Sink& sink, const std::string& name) {
  for (const auto& [n, v] : sink.metrics().counters()) {
    if (n == name) return v;
  }
  return 0;
}

int usage() {
  std::cerr
      << "usage:\n"
         "  lsi_cli build <docs.tsv> <db.lsi> [--k N] "
         "[--scheme raw|log-entropy] [--min-df N] [--stem] [--bigrams]\n"
         "                [--dense-cutoff N] [--probe \"free text\"] "
         "[--bf16]\n"
         "  lsi_cli query <db.lsi> \"free text\" [--top N] [--threshold C]\n"
         "                [--nprobe P | --recall R | --exact] "
         "[--<knob> V ...]\n"
         "  lsi_cli query <db.lsi> --batch-queries <queries.txt> [--top N] "
         "[--threshold C]\n"
         "                [--<knob> V ...]\n"
         "                (--nprobe/--recall build a cluster-pruned "
         "candidate index and\n"
         "                scan only the nearest centroids' lists — see "
         "docs/ANN.md)\n"
         "  lsi_cli terms <db.lsi> <term> [--top N]\n"
         "  lsi_cli add   <db.lsi> <more.tsv>\n"
         "  lsi_cli info  <db.lsi>\n"
         "  lsi_cli ingest-stress <docs.tsv> [--writers N] [--readers N] "
         "[--repeat N]\n"
         "                [--k N] [--queue N] [--consolidate-every N] "
         "[--exact] [--shards N]\n"
         "                (reader threads scatter-gather snapshot queries "
         "while writer\n"
         "                threads route the tail of the collection into a "
         "sharded index,\n"
         "                one shard by default)\n"
         "  lsi_cli serve <docs.tsv> [--port N] [--shards N] [--k N] "
         "[--queue N]\n"
         "                [--max-conn N] [--session-ttl SECONDS]\n"
         "                [--ann-cutoff N] [--ann-centroids C]\n"
         "                [--replicas R] [--read-policy round-robin|"
         "least-loaded]\n"
         "                [--query-threads N] [--share-stats]\n"
         "                (build a sharded index and run the HTTP/1.1 query "
         "daemon on\n"
         "                loopback until SIGINT/SIGTERM or POST /shutdown; "
         "--port 0\n"
         "                binds an ephemeral port, printed on startup — see "
         "docs/SERVING.md)\n"
         "  lsi_cli shard-stats <docs.tsv> [--shards N] [--k N] "
         "[--routing rr|size|hash]\n"
         "                [--no-split-k] [--share-stats] "
         "[--probe \"free text\"] [--top N]\n"
         "                [--merge cosine|zscore|rrf] [--collapse C] "
         "[--facets N] [--<knob> V ...]\n"
         "                (partition, build every shard's SVD and print the "
         "per-shard table;\n"
         "                --share-stats exchanges Equation-5 global weights "
         "across shards,\n"
         "                --merge/--collapse/--facets drive the gather "
         "pipeline — see\n"
         "                docs/GATHER.md)\n"
         "--<knob> is any /search knob (exact nprobe recall deadline_ms merge "
         "rrf_k\ncollapse facets), checked like the daemon's query string "
         "and answered by the\ndaemon's read body; query serves the database "
         "as one shard.\n"
         "Every command also accepts --stats[=json|csv] and "
         "--kernel portable|avx2|auto\n"
         "(force the SIMD microkernel set, same vocabulary as LSI_KERNEL — "
         "see\ndocs/KERNELS.md); `build --bf16` stores document vectors in "
         "bf16 and scores\nagainst them. <docs.tsv> may be @med for the\n"
         "built-in MEDLINE example collection.\n";
  return 2;
}

Collection read_tsv(const std::string& path) {
  if (path == "@med") return data::med_topics();
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  Collection docs;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("line without tab: " + line.substr(0, 40));
    }
    docs.push_back({line.substr(0, tab), line.substr(tab + 1)});
  }
  return docs;
}

/// Shared flag scanning: returns the value after `flag` or empty.
std::string flag_value(const std::vector<std::string>& args,
                       const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return "";
}

bool has_flag(const std::vector<std::string>& args, const std::string& flag) {
  for (const auto& a : args) {
    if (a == flag) return true;
  }
  return false;
}

/// The value of an integer flag, at most `max`; `fallback` when absent.
/// Anything util::parse_size rejects (a sign, a fraction, trailing text, a
/// missing value) or above `max` throws, naming the flag; main() prints it
/// and exits 1.
std::size_t size_flag(
    const std::vector<std::string>& args, const std::string& flag,
    std::size_t fallback,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  const std::string v = flag_value(args, flag);
  if (v.empty() && !has_flag(args, flag)) return fallback;
  const std::optional<std::size_t> parsed = util::parse_size(v);
  if (!parsed || *parsed > max) {
    throw std::invalid_argument(
        flag + " must be a nonnegative integer" +
        (max == std::numeric_limits<std::size_t>::max()
             ? ""
             : " of at most " + std::to_string(max)) +
        ", got '" + v + "'");
  }
  return *parsed;
}

/// The value of a finite-number flag; `fallback` when absent. Anything
/// util::parse_finite rejects throws, naming the flag.
double finite_flag(const std::vector<std::string>& args,
                   const std::string& flag, double fallback) {
  const std::string v = flag_value(args, flag);
  if (v.empty() && !has_flag(args, flag)) return fallback;
  const std::optional<double> parsed = util::parse_finite(v);
  if (!parsed) {
    throw std::invalid_argument(flag + " must be a finite number, got '" + v +
                                "'");
  }
  return *parsed;
}

/// The /search knobs from `--<name> value` flags, through the daemon's own
/// core::parse_search_knobs. A bare `--exact` (last, or followed by another
/// flag) means exact=1; any other bare knob flag reads as its own spelling,
/// which the knob's parse rejects.
Status parse_search_flags(const std::vector<std::string>& args,
                          SearchOptions& opts) {
  return core::parse_search_knobs(
      [&](std::string_view name) -> std::string_view {
        const std::string flag = "--" + std::string(name);
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (args[i] != flag) continue;
          if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
            return args[i + 1];
          }
          return name == "exact" ? std::string_view("1") : args[i];
        }
        return {};
      },
      opts);
}

/// Appends the retrieval predicted-vs-measured flop rows for the batch
/// `texts`, weighted by `ctx` and just ranked against `space` (model:
/// lsi/flops.hpp).
void record_retrieval_flops(const SemanticSpace& space,
                            const SnapshotQueryContext& ctx,
                            const std::vector<std::string>& texts,
                            const QueryStats& stats) {
  if (!g_sink) return;
  core::FlopModelParams fp;
  fp.m = space.num_terms();
  fp.n = space.num_docs();
  fp.k = space.k();
  fp.b = texts.size();
  for (const std::string& text : texts) {
    fp.nnz_q += ctx.weighted_terms(text).nnz();
  }
  // Predict only the stages the stats actually measured: projection is
  // absent when the query entered pre-projected (project_seconds == 0), and
  // the norm-cache fill is modeled separately (flops_doc_norm_cache). The
  // remaining gap is the sweep skipping zero query weights, which the dense
  // model cannot know about.
  std::uint64_t predicted = core::flops_batch_score(fp);
  if (stats.project_seconds > 0.0) predicted += core::flops_batch_project(fp);
  g_flops.push_back({"retrieval.batch", predicted, stats.flops});
}

/// Loads a database; one saved without labels gets each document labelled
/// by its index.
LsiDatabase load_database(const std::string& path) {
  LsiDatabase db = try_load_database_file(path).value();
  if (db.doc_labels.empty()) {
    for (core::index_t j = 0; j < db.space.num_docs(); ++j) {
      db.doc_labels.push_back(std::to_string(j));
    }
  }
  return db;
}

/// The query-side configuration a database was built with: its vocabulary,
/// parser options and Equation-5 weighting (global weights all ones when
/// the file stores none).
std::shared_ptr<const SnapshotQueryContext> database_context(
    const LsiDatabase& db) {
  std::vector<double> g = db.global_weights;
  if (g.empty()) g.assign(db.vocabulary.size(), 1.0);
  return std::make_shared<const SnapshotQueryContext>(
      db.vocabulary, db.parser, db.scheme, std::move(g));
}

int cmd_build(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const auto docs = read_tsv(args[0]);

  IndexOptions opts;
  opts.k = size_flag(args, "--k", opts.k);
  if (const auto scheme = flag_value(args, "--scheme"); scheme == "raw") {
    opts.scheme = weighting::kRaw;
  } else {
    opts.scheme = weighting::kLogEntropy;
  }
  opts.parser.min_document_frequency =
      size_flag(args, "--min-df", opts.parser.min_document_frequency);
  opts.build.dense_cutoff =
      size_flag(args, "--dense-cutoff", opts.build.dense_cutoff);
  opts.parser.stem = has_flag(args, "--stem");
  opts.parser.add_bigrams = has_flag(args, "--bigrams");
  opts.compress_docs = has_flag(args, "--bf16");

  auto index = LsiIndex::try_build(docs, opts).value();
  LsiDatabase db{index.space(), index.vocabulary(),
                 index.doc_labels(), index.options().scheme,
                 index.global_weights(), index.options().parser};
  try_save_database_file(args[1], db).or_throw();
  std::cout << "built " << args[1] << ": " << db.doc_labels.size()
            << " documents, " << db.vocabulary.size() << " terms, k = "
            << db.space.k() << "\n";

  if (g_sink) {
    stat_param("terms", static_cast<double>(index.space().num_terms()));
    stat_param("docs", static_cast<double>(index.space().num_docs()));
    stat_param("k", static_cast<double>(index.space().k()));
    stat_param("nnz", static_cast<double>(index.weighted_matrix().nnz()));
    // Section 4.2 cost skeleton for the sparse SVD just computed, using the
    // iteration count the instrumented solver recorded.
    const std::uint64_t steps = counter_value(*g_sink, "lanczos.steps");
    if (steps > 0) {
      core::FlopModelParams fp;
      fp.m = index.space().num_terms();
      fp.n = index.space().num_docs();
      fp.nnz_a = index.weighted_matrix().nnz();
      fp.iterations = steps;
      fp.triplets = index.space().k();
      g_flops.push_back({"lanczos.svd", core::flops_recompute(fp),
                         counter_value(*g_sink, "lanczos.flops_measured")});
    }
  }

  if (const auto probe = flag_value(args, "--probe"); !probe.empty()) {
    SearchOptions sopts;
    sopts.z = 10;
    QueryStats stats;
    std::cout << "# probe: " << probe << '\n';
    for (const auto& hit : index.query(probe, sopts, &stats)) {
      std::cout << hit.label << '\t' << hit.cosine << '\n';
    }
    record_retrieval_flops(index.space(), *index.context_ptr(), {probe},
                           stats);
  }
  return 0;
}

/// Ends a hit's output line, listing the near-duplicates collapsed into it.
void end_hit_line(const ShardedSnapshot::GatherHit& hit) {
  if (!hit.duplicates.empty()) {
    std::cout << "\tdups";
    for (const auto d : hit.duplicates) std::cout << ' ' << d;
  }
  std::cout << '\n';
}

/// Prints the facet terms the gather attached to one query, if any.
void print_facets(const ShardedSnapshot::GatherResult& result) {
  if (result.facets.empty()) return;
  std::cout << "# facets:";
  for (const auto& f : result.facets) std::cout << ' ' << f.term;
  std::cout << '\n';
}

int cmd_query(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  LsiDatabase db = load_database(args[0]);
  SearchOptions sopts;
  sopts.z = size_flag(args, "--top", 10);
  sopts.min_cosine = finite_flag(args, "--threshold", sopts.min_cosine);
  Status s = parse_search_flags(args, sopts);
  if (s.ok()) s = sopts.Validate();
  if (!s.ok()) {
    std::cerr << "invalid search options: " << s.message() << "\n";
    return 2;
  }
  const auto ctx = database_context(db);
  const auto space = std::make_shared<const SemanticSpace>(std::move(db.space));
  stat_param("terms", static_cast<double>(space->num_terms()));
  stat_param("docs", static_cast<double>(space->num_docs()));
  stat_param("k", static_cast<double>(space->k()));

  // The CLI asked for pruning explicitly (a nprobe, or a recall target
  // other than the default, without exact): build the cluster structure on
  // the spot with no size cutoff, so the flags work even on demo-sized
  // databases. The exact scan meets the default target already.
  std::shared_ptr<const AnnIndex> ann;
  if (sopts.search != core::SearchMode::kExact &&
      (sopts.nprobe > 0 ||
       sopts.recall_target != SearchOptions{}.recall_target)) {
    AnnOptions aopts;
    aopts.exact_cutoff = 0;
    ann = AnnIndex::build(*space, aopts, /*generation=*/0);
    if (ann) {
      std::cout << "# ann: " << ann->num_centroids() << " centroids, nprobe "
                << ann->resolve_nprobe(sopts) << '\n';
      stat_param("ann_centroids", static_cast<double>(ann->num_centroids()));
    }
  }

  // The database as a one-shard view with identity global ids: the
  // daemon's read body answers it, so every /search knob acts here too.
  ShardedSnapshot::ShardView shard;
  auto ids = std::make_shared<std::vector<core::index_t>>(space->num_docs());
  std::iota(ids->begin(), ids->end(), core::index_t{0});
  shard.global_ids = std::move(ids);
  shard.snapshot = std::make_shared<const IndexSnapshot>(
      space, util::RowBlocks<std::string>::from_values(db.doc_labels), ctx, /*generation=*/1, /*unconsolidated=*/0,
      IndexSnapshot::clock::now(), ann);
  const ShardedSnapshot view({std::move(shard)});

  // One query from the command line, or one per line of --batch-queries;
  // either way answered together as one batch.
  std::vector<std::string> texts;
  const std::string file = flag_value(args, "--batch-queries");
  if (file.empty()) {
    texts.push_back(args[1]);
  } else {
    std::ifstream is(file);
    if (!is) throw std::runtime_error("cannot open " + file);
    for (std::string line; std::getline(is, line);) {
      if (!line.empty()) texts.push_back(line);
    }
    stat_param("batch_size", static_cast<double>(texts.size()));
  }
  QueryStats stats;
  const auto results = view.try_gather_batch(texts, sopts, &stats);
  if (!results.ok()) {
    std::cerr << results.status().to_string() << '\n';
    return 1;
  }
  // One line per hit: its fusion score, which the default merge makes the
  // raw cosine.
  for (std::size_t b = 0; b < results->size(); ++b) {
    if (!file.empty()) {
      std::cout << "# query " << (b + 1) << ": " << texts[b] << '\n';
    }
    for (const auto& hit : (*results)[b].hits) {
      std::cout << hit.label << '\t' << hit.score;
      end_hit_line(hit);
    }
    print_facets((*results)[b]);
  }
  record_retrieval_flops(*space, *ctx, texts, stats);
  return 0;
}

int cmd_terms(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const LsiDatabase db = load_database(args[0]);
  const auto row = db.vocabulary.find(args[1]);
  if (!row) {
    std::cerr << "term not in vocabulary: " << args[1] << "\n";
    return 1;
  }
  const std::size_t top = size_flag(args, "--top", 10);
  const la::Vector anchor = db.space.term_coords(*row);
  for (const auto& sd : rank_terms(db.space, anchor, top + 1)) {
    if (sd.doc == *row) continue;
    std::cout << db.vocabulary.term(sd.doc) << '\t' << sd.cosine << '\n';
  }
  return 0;
}

int cmd_add(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  LsiDatabase db = load_database(args[0]);
  const auto docs = read_tsv(args[1]);
  const auto ctx = database_context(db);
  std::vector<la::SparseVector> cols;
  cols.reserve(docs.size());
  for (const auto& doc : docs) {
    cols.push_back(ctx->weighted_terms(doc.body));
    db.doc_labels.push_back(doc.label);
  }
  const la::CscMatrix d =
      la::CscMatrix::from_columns(db.space.num_terms(), cols);
  fold_in_documents(db.space, d);
  try_save_database_file(args[0], db).or_throw();
  std::cout << "folded in " << docs.size() << " documents; database now "
            << db.doc_labels.size() << " documents\n";
  if (g_sink) {
    core::FlopModelParams fp;
    fp.m = db.space.num_terms();
    fp.k = db.space.k();
    fp.p = docs.size();
    // The fold projects each column over its nonzeros: 2 nnz(D) k.
    g_flops.push_back({"foldin.documents", core::flops_fold_documents(fp),
                       2 * d.nnz() * fp.k});
  }
  return 0;
}

void print_shard_table(const std::vector<ShardedIndex::ShardInfo>& infos,
                       const std::string& title) {
  util::TextTable table({"shard", "docs", "terms", "k", "gen", "unconsol",
                         "queued", "ingested", "publishes", "consol",
                         "ann_c", "ann_gen", "scan"});
  for (const auto& info : infos) {
    table.add_row({util::fmt_int(static_cast<long long>(info.shard)),
                   util::fmt_int(static_cast<long long>(info.docs)),
                   util::fmt_int(static_cast<long long>(info.terms)),
                   util::fmt_int(static_cast<long long>(info.k)),
                   util::fmt_int(static_cast<long long>(info.generation)),
                   util::fmt_int(static_cast<long long>(info.unconsolidated)),
                   util::fmt_int(static_cast<long long>(info.queued)),
                   util::fmt_int(static_cast<long long>(info.ingested)),
                   util::fmt_int(static_cast<long long>(info.publishes)),
                   util::fmt_int(static_cast<long long>(info.consolidations)),
                   util::fmt_int(static_cast<long long>(info.ann_centroids)),
                   util::fmt_int(static_cast<long long>(info.ann_generation)),
                   info.ann_exact_fallback ? "exact" : "pruned"});
  }
  table.print(std::cout, title);
}

// Partition a collection, build every shard's independent truncated SVD and
// print the per-shard statistics table — the operational face of the
// Section 6 subcollection decomposition (docs/SHARDING.md).
int cmd_shard_stats(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto docs = read_tsv(args[0]);

  ShardingOptions sopts;
  sopts.num_shards =
      std::max<std::size_t>(1, size_flag(args, "--shards", sopts.num_shards));
  sopts.index.k = size_flag(args, "--k", sopts.index.k);
  if (const auto v = flag_value(args, "--routing"); !v.empty()) {
    sopts.routing = parse_routing_policy(v).value();
  }
  sopts.split_k_budget = !has_flag(args, "--no-split-k");
  sopts.share_term_stats = has_flag(args, "--share-stats");

  util::WallTimer wall;
  auto index = ShardedIndex::try_build(docs, sopts).value();
  const double build_s = wall.seconds();

  std::cout << "sharded index: " << docs.size() << " documents across "
            << index.num_shards() << " shards ("
            << routing_policy_name(sopts.routing) << " routing, total k = "
            << sopts.index.k
            << (sopts.split_k_budget ? ", split across shards"
                                     : " per shard")
            << "), built in " << build_s << "s\n";
  print_shard_table(index.shard_infos(), "");
  if (sopts.share_term_stats) {
    const auto ts = index.term_stats_info();
    std::cout << "term stats: v" << ts.version << ", " << ts.docs
              << " docs, " << ts.terms << " terms shared across shards\n";
  }

  stat_param("shards", static_cast<double>(index.num_shards()));
  stat_param("docs", static_cast<double>(docs.size()));
  stat_param("k_total", static_cast<double>(sopts.index.k));

  if (const auto probe = flag_value(args, "--probe"); !probe.empty()) {
    SearchOptions qopts;
    qopts.z = size_flag(args, "--top", 10);
    if (Status s = parse_search_flags(args, qopts); !s.ok()) {
      std::cerr << "invalid search options: " << s.message() << "\n";
      return 2;
    }
    QueryStats stats;
    std::cout << "# probe: " << probe << " (merge="
              << gather::merge_policy_name(qopts.merge) << ")\n";
    const auto results =
        index.snapshot().try_gather_batch({probe}, qopts, &stats);
    if (!results.ok()) {
      std::cerr << results.status().to_string() << '\n';
      return 1;
    }
    // One line per hit (fusion score, raw cosine, source shard, collapsed
    // duplicates), facet suggestions after the ranking.
    for (const auto& hit : (*results)[0].hits) {
      std::cout << hit.label << "\tdoc " << hit.doc << "\tscore " << hit.score
                << "\tcosine " << hit.cosine << "\tshard " << hit.shard;
      end_hit_line(hit);
    }
    print_facets((*results)[0]);
    stat_param("probe_docs_scored", static_cast<double>(stats.docs_scored));
  }
  return 0;
}

// Serve-while-updating exerciser: builds a sharded index (one shard by
// default) from the head of the collection, then routes the rest through
// writer threads (per-shard ConcurrentIndexer queues and backpressure) while
// reader threads pin ShardedSnapshots and scatter-gather their queries.
// Prints throughput and the snapshot/consolidation counters plus the
// per-shard table; with --stats the concurrent.* and serving.query spans
// land in the document.
int cmd_ingest_stress(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto docs = read_tsv(args[0]);
  if (docs.size() < 8) {
    std::cerr << "ingest-stress needs at least 8 documents\n";
    return 1;
  }

  const std::size_t writers =
      std::max<std::size_t>(1, size_flag(args, "--writers", 2));
  const std::size_t readers =
      std::max<std::size_t>(1, size_flag(args, "--readers", 4));
  const std::size_t repeat =
      std::max<std::size_t>(1, size_flag(args, "--repeat", 1));
  ShardingOptions sopts;
  sopts.num_shards = std::max<std::size_t>(1, size_flag(args, "--shards", 1));
  sopts.index.k = size_flag(args, "--k", 20);
  sopts.split_k_budget = false;  // operational tool: keep each shard's k
  sopts.concurrent.queue_capacity =
      size_flag(args, "--queue", sopts.concurrent.queue_capacity);
  sopts.concurrent.consolidate_every = size_flag(
      args, "--consolidate-every", sopts.concurrent.consolidate_every);
  sopts.concurrent.exact_update = has_flag(args, "--exact");
  const std::size_t shards = sopts.num_shards;

  const std::size_t base = std::max<std::size_t>(4, docs.size() / 3);
  Collection head(docs.begin(), docs.begin() + base);
  auto index = ShardedIndex::try_build(head, sopts).value();
  std::cout << "base index: " << base << " documents across " << shards
            << " shards; streaming " << (docs.size() - base) * repeat
            << " documents through " << writers << " writers while "
            << readers << " readers scatter-gather\n";

  std::atomic<bool> done{false};
  std::atomic<std::size_t> queries{0};
  std::atomic<std::size_t> overloads{0};
  util::WallTimer wall;

  std::vector<std::thread> writer_threads;
  for (std::size_t w = 0; w < writers; ++w) {
    writer_threads.emplace_back([&, w] {
      for (std::size_t rep = 0; rep < repeat; ++rep) {
        for (std::size_t d = base + w; d < docs.size(); d += writers) {
          Document doc = docs[d];
          if (rep > 0) {
            doc.label += '#';
            doc.label += std::to_string(rep);
          }
          // Alternate blocking and non-blocking ingestion so both
          // backpressure paths run under load.
          if (d % 2 == 0) {
            if (!index.add(std::move(doc)).ok()) return;
          } else {
            for (;;) {
              const Status s = index.try_add(doc);
              if (s.ok()) break;
              if (s.code() != StatusCode::kResourceExhausted) return;
              overloads.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
            }
          }
        }
      }
    });
  }

  std::vector<std::thread> reader_threads;
  for (std::size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      std::size_t q = r;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = index.snapshot();
        std::vector<std::vector<ScoredDoc>> hits;
        {
          LSI_OBS_SPAN(span, "serving.query");
          hits = snap.try_rank_batch({docs[q % base].body}).value();
        }
        if (hits[0].empty()) {
          std::cerr << "empty ranking against " << snap.num_docs()
                    << " documents\n";
        }
        queries.fetch_add(1, std::memory_order_relaxed);
        q += readers;
      }
    });
  }

  for (auto& t : writer_threads) t.join();
  index.flush();
  done.store(true, std::memory_order_release);
  for (auto& t : reader_threads) t.join();
  const double seconds = wall.seconds();
  index.shutdown();

  const auto infos = index.shard_infos();
  std::uint64_t publishes = 0, consolidations = 0;
  for (const auto& info : infos) {
    publishes += info.publishes;
    consolidations += info.consolidations;
  }
  std::cout << "ingested " << index.ingested() << " documents in " << seconds
            << "s (" << static_cast<double>(index.ingested()) / seconds
            << " docs/s)\n"
            << "served   " << queries.load() << " queries ("
            << static_cast<double>(queries.load()) / seconds << " q/s), "
            << overloads.load() << " backpressure retries\n"
            << "published " << publishes << " snapshots, " << consolidations
            << " consolidations across " << shards << " shards\n";
  print_shard_table(infos, "");

  stat_param("shards", static_cast<double>(shards));
  stat_param("writers", static_cast<double>(writers));
  stat_param("readers", static_cast<double>(readers));
  stat_param("docs_ingested", static_cast<double>(index.ingested()));
  stat_param("queries", static_cast<double>(queries.load()));
  stat_param("qps", static_cast<double>(queries.load()) / seconds);
  stat_param("publishes", static_cast<double>(publishes));
  stat_param("consolidations", static_cast<double>(consolidations));
  return 0;
}

// ---------------------------------------------------------------------------
// serve: build a sharded index and run the HTTP/1.1 query daemon
// ---------------------------------------------------------------------------

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

int cmd_serve(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const auto docs = read_tsv(args[0]);

  core::ShardingOptions sopts;
  sopts.num_shards = size_flag(args, "--shards", 2);
  sopts.index.k = size_flag(args, "--k", 16);
  sopts.concurrent.queue_capacity =
      size_flag(args, "--queue", sopts.concurrent.queue_capacity);
  sopts.concurrent.ann.exact_cutoff =
      size_flag(args, "--ann-cutoff", sopts.concurrent.ann.exact_cutoff);
  sopts.concurrent.ann.num_centroids =
      size_flag(args, "--ann-centroids", sopts.concurrent.ann.num_centroids);
  sopts.replicas = size_flag(args, "--replicas", sopts.replicas);
  if (const auto v = flag_value(args, "--read-policy"); !v.empty()) {
    if (v == "round-robin") {
      sopts.read_policy = core::ReadPolicy::kRoundRobin;
    } else if (v == "least-loaded") {
      sopts.read_policy = core::ReadPolicy::kLeastLoaded;
    } else {
      std::cerr << "--read-policy must be round-robin or least-loaded\n";
      return 1;
    }
  }
  sopts.query_threads =
      size_flag(args, "--query-threads", sopts.query_threads);
  sopts.share_term_stats = has_flag(args, "--share-stats");

  serve::ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(size_flag(
      args, "--port", opts.port, std::numeric_limits<std::uint16_t>::max()));
  opts.max_connections =
      size_flag(args, "--max-conn", opts.max_connections);
  // At most a year: the loop compares the TTL in nanoseconds.
  opts.session_ttl = std::chrono::seconds(size_flag(
      args, "--session-ttl",
      static_cast<std::size_t>(opts.session_ttl.count()), 365 * 86'400));

  util::WallTimer timer;
  auto built = core::ShardedIndex::try_build(docs, sopts);
  if (!built.ok()) {
    std::cerr << "build failed: " << built.status().to_string() << "\n";
    return 1;
  }
  core::ShardedIndex& index = *built;
  std::cout << "built " << docs.size() << " docs across " << index.num_shards()
            << " shards (x" << index.replicas_per_shard() << " replicas, "
            << core::read_policy_name(sopts.read_policy) << " reads) in "
            << timer.millis() << " ms\n";

  serve::HttpServer server(index, opts);
  if (Status s = server.start(); !s.ok()) {
    std::cerr << "serve failed: " << s.to_string() << "\n";
    return 1;
  }
  // The line smoke drivers wait for; flushed so a piped reader sees it now.
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // Park until POST /shutdown drains the daemon or a signal asks us to.
  while (!server.stopped() && !g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (g_interrupted.load()) std::cout << "signal: draining\n";
  server.drain();

  const serve::HttpServer::Stats stats = server.stats();
  std::cout << "served " << stats.requests << " requests ("
            << stats.responses_2xx << " 2xx, " << stats.responses_4xx
            << " 4xx, " << stats.responses_5xx << " 5xx, "
            << stats.backpressure_429 << " throttled), ingested "
            << stats.docs_ingested << " docs\n";
  index.shutdown();
  return 0;
}

int cmd_info(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const LsiDatabase db = load_database(args[0]);
  std::cout << "documents: " << db.doc_labels.size() << "\n"
            << "terms:     " << db.vocabulary.size() << "\n"
            << "factors:   " << db.space.k() << "\n"
            << "weighting: " << weighting::name(db.scheme) << "\n"
            << "sigma_1:   " << (db.space.sigma.empty() ? 0.0
                                                        : db.space.sigma[0])
            << "\n"
            << "sigma_k:   " << (db.space.sigma.empty() ? 0.0
                                                        : db.space.sigma.back())
            << "\n"
            << "doc store: " << (db.space.compress_docs() ? "bf16" : "fp64")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // --stats[=json|csv] applies to every command; strip it before dispatch.
  std::string stats_format;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--stats" || *it == "--stats=json") {
      stats_format = "json";
      it = args.erase(it);
    } else if (*it == "--stats=csv") {
      stats_format = "csv";
      it = args.erase(it);
    } else {
      ++it;
    }
  }

  // --kernel portable|avx2|auto applies to every command (same vocabulary
  // as the LSI_KERNEL environment variable; the flag wins). Unknown names
  // are an immediate usage error rather than a silent fallback.
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--kernel" && std::next(it) != args.end()) {
      const std::string name = *std::next(it);
      if (!la::kern::force(name)) {
        std::cerr << "unknown --kernel '" << name
                  << "' (expected portable, avx2, or auto)\n";
        return 2;
      }
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }

  if (args.empty()) return usage();
  const std::string cmd = args[0];
  args.erase(args.begin());

  obs::Sink sink;
  std::optional<obs::ScopedSink> scoped;
  if (!stats_format.empty()) {
    g_sink = &sink;
    scoped.emplace(&sink);
  }

  int rc = 2;
  try {
    if (cmd == "build") {
      rc = cmd_build(args);
    } else if (cmd == "query") {
      rc = cmd_query(args);
    } else if (cmd == "terms") {
      rc = cmd_terms(args);
    } else if (cmd == "add") {
      rc = cmd_add(args);
    } else if (cmd == "info") {
      rc = cmd_info(args);
    } else if (cmd == "ingest-stress" || cmd == "--ingest-stress") {
      rc = cmd_ingest_stress(args);
    } else if (cmd == "serve") {
      rc = cmd_serve(args);
    } else if (cmd == "shard-stats") {
      rc = cmd_shard_stats(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (rc == 0 && !stats_format.empty()) {
    obs::StatsDoc doc = obs::StatsDoc::from_sink("lsi_cli." + cmd, sink);
    doc.params = g_params;
    doc.flops = g_flops;
    if (stats_format == "csv") {
      obs::write_csv(std::cout, doc);
    } else {
      obs::write_json(std::cout, doc);
    }
  }
  return rc;
}
