#include "lsi/lsi_index.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace lsi::core {

Status IndexOptions::Validate() const {
  if (k == 0) {
    return Status::InvalidArgument("IndexOptions: k must be at least 1");
  }
  if (build.lanczos.tol <= 0.0) {
    return Status::InvalidArgument(
        "IndexOptions: build.lanczos.tol must be positive");
  }
  if (parser.min_document_frequency == 0) {
    return Status::InvalidArgument(
        "IndexOptions: parser.min_document_frequency must be at least 1");
  }
  return Status::Ok();
}

SnapshotQueryContext::SnapshotQueryContext(text::Vocabulary vocabulary,
                                           text::ParserOptions parser,
                                           weighting::Scheme scheme,
                                           std::vector<double> global_weights)
    : vocabulary_(std::move(vocabulary)),
      parser_(std::move(parser)),
      scheme_(scheme),
      global_weights_(std::move(global_weights)) {}

la::SparseVector SnapshotQueryContext::weighted_terms(
    std::string_view text) const {
  return weighting::apply_to_sparse(
      text::term_counts(vocabulary_, text, parser_), global_weights_,
      scheme_.local);
}

la::Vector SnapshotQueryContext::weighted_term_vector(
    std::string_view text) const {
  return weighted_terms(text).to_dense(vocabulary_.size());
}

Expected<LsiIndex> LsiIndex::try_build(const text::Collection& docs,
                                       const IndexOptions& opts) {
  if (Status s = opts.Validate(); !s.ok()) return s;
  if (docs.empty()) {
    return Status::InvalidArgument("LsiIndex: empty collection");
  }
  LSI_OBS_SPAN(span, "build");
  LsiIndex index;
  index.opts_ = opts;
  text::TermDocumentMatrix tdm =
      text::build_term_document_matrix(docs, opts.parser);
  std::vector<double> global_weights;
  {
    LSI_OBS_SPAN(span_weight, "build.weight");
    if (opts.shared_stats) {
      global_weights =
          opts.shared_stats->weights_for(tdm.vocabulary, opts.scheme.global);
      index.weighted_ = weighting::apply_with_global(
          tdm.counts, opts.scheme.local, global_weights);
    } else {
      index.weighted_ = weighting::apply(tdm.counts, opts.scheme);
      global_weights = weighting::global_weights(tdm.counts, opts.scheme.global);
    }
  }
  Expected<SemanticSpace> space =
      try_build_semantic_space(index.weighted_, opts.k, opts.build);
  if (!space.ok()) return space.status();
  index.space_ = std::move(space).value();
  index.space_.set_compress_docs(opts.compress_docs);
  index.ctx_ = std::make_shared<const SnapshotQueryContext>(
      std::move(tdm.vocabulary), opts.parser, opts.scheme,
      std::move(global_weights));
  index.counts_ = std::move(tdm.counts);
  index.labels_ = std::move(tdm.doc_labels);
  return index;
}

la::Vector LsiIndex::project(std::string_view text) const {
  return project_query(space_, weighted_terms(text));
}

std::vector<QueryResult> LsiIndex::query_projected(
    const la::Vector& q_hat, const SearchOptions& opts,
    QueryStats* stats) const {
  std::vector<QueryResult> out;
  for (const ScoredDoc& sd : rank_documents(space_, q_hat, opts, stats)) {
    out.push_back({labels_[sd.doc], sd.doc, sd.cosine});
  }
  return out;
}

std::vector<QueryResult> LsiIndex::query(std::string_view text,
                                         const SearchOptions& opts,
                                         QueryStats* stats) const {
  return query_projected(project(text), opts, stats);
}

std::vector<QueryResult> LsiIndex::query_vector(const la::Vector& raw_tf,
                                                const SearchOptions& opts,
                                                QueryStats* stats) const {
  const la::Vector weighted = weighting::apply_to_vector(
      raw_tf, global_weights(), opts_.scheme.local);
  return query_projected(project_query(space_, weighted), opts, stats);
}

void LsiIndex::add_documents(const text::Collection& docs, AddMethod method) {
  std::vector<la::SparseVector> cols;
  cols.reserve(docs.size());
  for (const text::Document& doc : docs) {
    cols.push_back(weighted_terms(doc.body));
    labels_.push_back(doc.label);
  }
  const la::CscMatrix d = la::CscMatrix::from_columns(space_.num_terms(), cols);
  if (method == AddMethod::kFoldIn) {
    fold_in_documents(space_, d);
  } else {
    update_documents(space_, d);
  }
}

std::vector<std::pair<std::string, double>> LsiIndex::similar_terms(
    std::string_view term, std::size_t top) const {
  std::vector<std::pair<std::string, double>> out;
  const auto row = vocabulary().find(
      lsi::util::to_lower(std::string(term)));
  if (!row) return out;
  const la::Vector anchor = space_.term_coords(*row);
  std::vector<ScoredDoc> ranked = rank_terms(space_, anchor, top + 1);
  for (const ScoredDoc& sd : ranked) {
    if (sd.doc == *row) continue;
    out.emplace_back(vocabulary().term(sd.doc), sd.cosine);
    if (out.size() == top) break;
  }
  return out;
}

}  // namespace lsi::core
