// Section 4.3: loss of orthogonality under folding-in, and its correlation
// with retrieval degradation — the experiment the paper poses as future
// work ("monitoring the loss of orthogonality associated with folding-in
// and correlating it to the number of relevant documents returned").

#include <iostream>

#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "lsi/folding.hpp"
#include "lsi/lsi_index.hpp"
#include "lsi/update.hpp"
#include "synth/corpus.hpp"

int main() {
  using namespace lsi;
  bench::StatsSession session("orthogonality");
  bench::banner("Section 4.3",
                "Orthogonality loss ||V^T V - I||_2 vs. number of folded-in "
                "documents,\ncorrelated with retrieval quality (the paper's "
                "proposed future experiment).");

  synth::CorpusSpec spec;
  spec.topics = 6;
  spec.concepts_per_topic = 10;
  spec.docs_per_topic = 40;
  spec.own_topic_prob = 0.6;
  spec.general_prob = 0.4;
  spec.polysemy_prob = 0.1;
  spec.queries_per_topic = 4;
  spec.query_len = 3;
  spec.query_offform_prob = 0.6;
  spec.seed = 314;
  auto corpus = synth::generate_corpus(spec);

  // Interleaved split: train on every other document (all topics present),
  // stream the rest in batches.
  text::Collection train;
  std::vector<std::size_t> stream_ids;
  for (std::size_t d = 0; d < corpus.docs.size(); ++d) {
    if (d % 2 == 0) {
      train.push_back(corpus.docs[d]);
    } else {
      stream_ids.push_back(d);
    }
  }

  core::IndexOptions opts;
  opts.k = 25;
  auto folded = core::LsiIndex::try_build(train, opts).value();
  auto updated = core::LsiIndex::try_build(train, opts).value();

  // index position -> original corpus id (grows as documents stream in).
  std::vector<std::size_t> position_to_id;
  for (std::size_t d = 0; d < corpus.docs.size(); ++d) {
    if (d % 2 == 0) position_to_id.push_back(d);
  }

  auto mean_ap = [&](const core::LsiIndex& index) {
    std::vector<double> scores;
    for (const auto& q : corpus.queries) {
      std::vector<la::index_t> ranked;
      eval::DocSet present_relevant;
      for (const auto& r : index.query(q.text)) {
        const std::size_t id = position_to_id[r.doc];
        ranked.push_back(id);
        if (q.relevant.count(id)) present_relevant.insert(id);
      }
      if (present_relevant.empty()) continue;
      scores.push_back(eval::average_precision(ranked, present_relevant));
    }
    return eval::mean(scores);
  };

  // The measure the paper proposes: relevant documents returned *within a
  // cosine threshold*. Folding-in distorts absolute cosines (through the
  // non-orthogonal axes) even where rank order survives.
  const double tau = 0.60;
  auto recall_at_tau = [&](const core::LsiIndex& index) {
    std::vector<double> scores;
    core::SearchOptions qopts;
    qopts.min_cosine = tau;
    for (const auto& q : corpus.queries) {
      std::size_t hits = 0, relevant_present = 0;
      for (std::size_t pos = 0; pos < position_to_id.size(); ++pos) {
        relevant_present += q.relevant.count(position_to_id[pos]);
      }
      for (const auto& r : index.query(q.text, qopts)) {
        hits += q.relevant.count(position_to_id[r.doc]);
      }
      if (relevant_present > 0) {
        scores.push_back(static_cast<double>(hits) / relevant_present);
      }
    }
    return eval::mean(scores);
  };

  util::TextTable table({"docs folded", "loss fold ||V'V-I||", "AP fold",
                         "R@cos.6 fold", "loss update", "AP update",
                         "R@cos.6 upd"});
  table.add_row({"0",
                 util::fmt(core::orthogonality_loss(folded.space().v), 6),
                 util::fmt(mean_ap(folded), 3),
                 util::fmt(recall_at_tau(folded), 3),
                 util::fmt(core::orthogonality_loss(updated.space().v), 6),
                 util::fmt(mean_ap(updated), 3),
                 util::fmt(recall_at_tau(updated), 3)});

  const std::size_t batch = 24;
  std::size_t added = 0;
  for (std::size_t start = 0; start < stream_ids.size(); start += batch) {
    const std::size_t end = std::min(start + batch, stream_ids.size());
    text::Collection chunk;
    for (std::size_t i = start; i < end; ++i) {
      chunk.push_back(corpus.docs[stream_ids[i]]);
      position_to_id.push_back(stream_ids[i]);
    }
    folded.add_documents(chunk, core::AddMethod::kFoldIn);
    updated.add_documents(chunk, core::AddMethod::kSvdUpdate);
    added += chunk.size();
    table.add_row({std::to_string(added),
                   util::fmt(core::orthogonality_loss(folded.space().v), 6),
                   util::fmt(mean_ap(folded), 3),
                   util::fmt(recall_at_tau(folded), 3),
                   util::fmt(core::orthogonality_loss(updated.space().v), 6),
                   util::fmt(mean_ap(updated), 3),
                   util::fmt(recall_at_tau(updated), 3)});
  }
  table.print(std::cout, "Streaming half the collection into the index:");

  std::cout << "\nShape to verify: folding-in's orthogonality loss grows "
               "monotonically with the\nnumber of folded documents while "
               "SVD-updating stays at machine precision.\n\nMeasured "
               "finding for the paper's open question (does the distortion "
               "hurt\nretrieval?): for a *stationary* document stream both "
               "methods place new\ndocuments through the same span(U_k) "
               "projection, so AP and threshold recall\ncoincide even as "
               "||V^T V - I|| grows — consistent with the paper's remark "
               "that\nthe difference 'is likely to depend on the number of "
               "new documents and terms\nrelative to the number in the "
               "original SVD'. The regime where they do diverge\n(small k, "
               "new term associations) is exactly the Table 5 example: see\n"
               "bench_fig7_folding vs bench_fig9_svdupdate.\n";
  return 0;
}
