#pragma once
// Umbrella header: the stable public surface of the library, re-exported
// under the top-level `lsi::` namespace. Applications, examples and benches
// should include this one header and use the `lsi::` aliases below instead
// of reaching into the `lsi::core` / `lsi::text` / `lsi::weighting`
// internals — the nested namespaces stay free to reorganize, the aliases do
// not.
//
//   #include "lsi/lsi.hpp"
//
//   lsi::IndexOptions opts;
//   auto index = lsi::LsiIndex::try_build(docs, opts).value();
//   for (const auto& hit : index.query("graph partitioning")) ...

#include "lsi/ann.hpp"
#include "lsi/batched_retrieval.hpp"
#include "lsi/concurrent.hpp"
#include "lsi/search_options.hpp"
#include "lsi/flops.hpp"
#include "lsi/folding.hpp"
#include "lsi/incremental.hpp"
#include "lsi/io.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/ranking.hpp"
#include "lsi/retrieval.hpp"
#include "lsi/semantic_space.hpp"
#include "lsi/sharding/router.hpp"
#include "lsi/sharding/sharded_index.hpp"
#include "lsi/status.hpp"
#include "lsi/update.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "text/document.hpp"
#include "text/parser.hpp"
#include "weighting/weighting.hpp"

namespace lsi {

// Status / Expected already live at lsi:: scope (status.hpp).

// Documents and parsing.
using text::Collection;
using text::Document;
using text::ParserOptions;
using text::TermDocumentMatrix;
using text::Vocabulary;

// Equation-5 weighting.
using weighting::GlobalWeight;
using weighting::LocalWeight;
using weighting::Scheme;

// The semantic space and its builder.
using core::BuildOptions;
using core::SemanticSpace;
using core::SimilarityMode;
using core::try_build_semantic_space;

// The high-level index and retrieval types.
using core::AddMethod;
using core::BatchedRetriever;
using core::IndexOptions;
using core::LsiIndex;
using core::QueryBatch;
using core::QueryResult;
using core::QueryStats;
using core::ScoredDoc;

// The unified per-request knob set and the cluster-pruned candidate
// generator it steers (lsi/search_options.hpp, lsi/ann.hpp, docs/ANN.md).
using core::AnnIndex;
using core::AnnOptions;
using core::search_mode_name;
using core::SearchMode;
using core::SearchOptions;

// Free-function retrieval over a bare SemanticSpace.
using core::project_query;
using core::project_term;
using core::rank_documents;
using core::rank_terms;
using core::retrieve;

// Incremental maintenance (Sections 2.3 and 4).
using core::fold_in_documents;
using core::fold_in_terms;
using core::IncrementalIndexer;
using core::IncrementalOptions;
using core::update_documents;
using core::update_terms;

// Concurrent serve-while-updating (Section 5.6; docs/CONCURRENCY.md).
using core::ConcurrentIndexer;
using core::ConcurrentOptions;
using core::IndexSnapshot;
using core::SnapshotQueryContext;

// The canonical ranking order (lsi/ranking.hpp).
using core::merge_rankings;
using core::ranks_before;
using core::sort_ranking;

// Sharded scatter-gather serving (docs/SHARDING.md).
using core::parse_routing_policy;
using core::routing_policy_name;
using core::RoutingPolicy;
using core::ShardedIndex;
using core::ShardedSnapshot;
using core::ShardingOptions;
using core::ShardRouter;

// Persistence.
using core::LsiDatabase;
using core::try_load_database;
using core::try_load_database_file;
using core::try_save_database;
using core::try_save_database_file;

}  // namespace lsi
