#include "lsi/batched_retrieval.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <type_traits>

#include "la/kernels.hpp"
#include "lsi/doc_store.hpp"
#include "lsi/ranking.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lsi::core {

namespace {

/// L1 budget of one sweep sub-tile's accumulators (tile x B of them), half
/// of a typical 32 KiB L1d so the V column segments streaming past fit too.
constexpr std::size_t kSweepTileBytes = 16 * 1024;
/// Floor on the sub-tile height, so very large batches still run the
/// elementwise kernels over vector-length stretches.
constexpr std::size_t kMinSweepTile = 16;

// ranks_before (lsi/ranking.hpp) is the total order every ranking obeys:
// higher cosine first, then lower document index. Also the heap ordering for
// bounded top-z selection.
constexpr auto by_rank = ranks_before<ScoredDoc, ScoredDoc>;

/// Threshold-then-select for one query's score column: `opts.min_cosine`
/// filters first, so the bounded top-`opts.z` heap only ever holds
/// documents that passed it.
std::vector<ScoredDoc> select_ranked(std::span<const double> scores,
                                     const SearchOptions& opts) {
  const std::size_t n = scores.size();
  const std::size_t z = opts.z;
  std::vector<ScoredDoc> keep;
  if (z > 0 && z < n) {
    // Bounded heap of the z best so far; with comparator ranks_before the
    // heap top is the worst kept candidate.
    keep.reserve(z + 1);
    for (std::size_t j = 0; j < n; ++j) {
      const ScoredDoc cand{j, scores[j]};
      if (cand.cosine < opts.min_cosine) continue;
      if (keep.size() < z) {
        keep.push_back(cand);
        std::push_heap(keep.begin(), keep.end(), by_rank);
      } else if (by_rank(cand, keep.front())) {
        std::pop_heap(keep.begin(), keep.end(), by_rank);
        keep.back() = cand;
        std::push_heap(keep.begin(), keep.end(), by_rank);
      }
    }
    std::sort(keep.begin(), keep.end(), by_rank);
  } else {
    keep.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (scores[j] >= opts.min_cosine) keep.push_back({j, scores[j]});
    }
    std::sort(keep.begin(), keep.end(), by_rank);
    if (z > 0 && keep.size() > z) keep.resize(z);
  }
  return keep;
}

/// First two moments of one query's scored cosines, accumulated in doc-index
/// order so the result is deterministic for a given space and candidate set.
ScoreMoments moments_of(std::span<const double> scores) {
  ScoreMoments m;
  m.count = scores.size();
  if (m.count == 0) return m;
  double sum = 0.0;
  for (const double s : scores) sum += s;
  m.mean = sum / static_cast<double>(m.count);
  double var = 0.0;
  for (const double s : scores) var += (s - m.mean) * (s - m.mean);
  m.stdev = std::sqrt(var / static_cast<double>(m.count));
  return m;
}

}  // namespace

QueryBatch QueryBatch::from_projected(const SemanticSpace& space,
                                      const std::vector<la::Vector>& qhats) {
  QueryBatch batch;
  batch.qhat_ = la::DenseMatrix(space.k(), qhats.size());
  for (index_t b = 0; b < qhats.size(); ++b) {
    assert(qhats[b].size() == space.k());
    auto col = batch.qhat_.col(b);
    for (index_t i = 0; i < space.k(); ++i) col[i] = qhats[b][i];
  }
  return batch;
}

Expected<QueryBatch> QueryBatch::try_from_projected(
    const SemanticSpace& space, const std::vector<la::Vector>& qhats) {
  for (std::size_t b = 0; b < qhats.size(); ++b) {
    if (qhats[b].size() != static_cast<std::size_t>(space.k())) {
      return Status::InvalidArgument(
          "projected query " + std::to_string(b) + " has length " +
          std::to_string(qhats[b].size()) + ", space has k = " +
          std::to_string(space.k()));
    }
  }
  return from_projected(space, qhats);
}

Expected<QueryBatch> QueryBatch::try_from_sparse(
    const SemanticSpace& space,
    const std::vector<la::SparseVector>& term_vectors, QueryStats* stats) {
  for (std::size_t b = 0; b < term_vectors.size(); ++b) {
    const la::SparseVector& t = term_vectors[b];
    const auto bad = [&](const std::string& why) {
      return Status::InvalidArgument("sparse term vector " +
                                     std::to_string(b) + " " + why);
    };
    if (t.rows.size() != t.values.size()) {
      return bad("has " + std::to_string(t.rows.size()) + " rows but " +
                 std::to_string(t.values.size()) + " values");
    }
    for (std::size_t p = 0; p < t.rows.size(); ++p) {
      if (t.rows[p] >= space.num_terms()) {
        return bad("has row " + std::to_string(t.rows[p]) + ", space has " +
                   std::to_string(space.num_terms()) + " terms");
      }
      if (p > 0 && t.rows[p] <= t.rows[p - 1]) {
        return bad("rows are not strictly ascending at position " +
                   std::to_string(p));
      }
    }
  }
  return from_sparse(space, term_vectors, stats);
}

QueryBatch QueryBatch::from_sparse(
    const SemanticSpace& space,
    const std::vector<la::SparseVector>& term_vectors, QueryStats* stats) {
  util::WallTimer timer;
  LSI_OBS_SPAN(span, "retrieval.project");
  QueryBatch batch;
  batch.qhat_ = la::DenseMatrix(space.k(), term_vectors.size());
  std::uint64_t nnz = 0;
  for (index_t b = 0; b < term_vectors.size(); ++b) {
    const la::SparseVector& t = term_vectors[b];
    project_sparse(space, t.rows, t.values, batch.qhat_.col(b));
    nnz += t.nnz();
  }
  if (stats) {
    const std::uint64_t k = space.k();
    const std::uint64_t b = term_vectors.size();
    stats->flops += 2 * nnz * k + k * b;  // gathered dots + S^{-1} scaling
    const double elapsed = timer.seconds();
    stats->project_seconds += elapsed;
    stats->total_seconds += elapsed;
  }
  return batch;
}

QueryBatch QueryBatch::from_term_vectors(
    const SemanticSpace& space, const std::vector<la::Vector>& term_vectors,
    QueryStats* stats) {
  std::vector<la::SparseVector> sparse;
  sparse.reserve(term_vectors.size());
  for (const la::Vector& t : term_vectors) {
    assert(t.size() == space.num_terms());
    sparse.push_back(la::SparseVector::from_dense(t));
  }
  return from_sparse(space, sparse, stats);
}

la::DenseMatrix BatchedRetriever::scores(const QueryBatch& batch,
                                         SimilarityMode mode,
                                         QueryStats* stats) const {
  util::WallTimer timer;
  LSI_OBS_SPAN(span, "retrieval.score");
  const index_t n = space_.num_docs();
  const index_t k = space_.k();
  const index_t bsz = batch.size();
  assert(bsz == 0 || batch.k() == k);

  // All three modes are cos(q_hat .* s^a, v_j .* s^b): a = 1 only for
  // kColumnSpace; b = 1 except for kPlainV. The query-side coordinates q'
  // give the per-query norms; the document-side s^b is then folded into the
  // sweep weights w = q' .* s^b so the inner loop reads raw V_k entries.
  la::DenseMatrix w = batch.projected();
  std::vector<double> query_norm(bsz);
  for (index_t b = 0; b < bsz; ++b) {
    auto wb = w.col(b);
    if (mode == SimilarityMode::kColumnSpace) {
      for (index_t i = 0; i < k; ++i) wb[i] *= space_.sigma[i];
    }
    query_norm[b] = la::norm2(wb);
    if (mode != SimilarityMode::kPlainV) {
      for (index_t i = 0; i < k; ++i) wb[i] *= space_.sigma[i];
    }
  }
  // With compression enabled the sweep streams the bf16 store instead of V
  // and divides by the store's decoded-value norms — cosines must normalize
  // by the vector actually scored (doc_store.hpp).
  const Bf16DocStore* bf16 = space_.compressed_docs();
  const util::RowBlocks<double>& doc_norm =
      bf16 ? bf16->doc_norms(mode) : space_.doc_norms(mode);

  la::DenseMatrix c(n, bsz);
  if (stats) {
    // Flops of the sweep below, counted against what actually runs: zero
    // weights skip their accumulation row, so tally the nonzeros.
    std::uint64_t nnz_w = 0;
    for (index_t b = 0; b < bsz; ++b) {
      for (index_t i = 0; i < k; ++i) {
        if (w(i, b) != 0.0) ++nnz_w;
      }
    }
    stats->batch_size += bsz;
    stats->docs_scored = n;
    stats->flops += 3ull * k * bsz      // weight prep + query norms
                    + 2ull * n * nnz_w  // multiply-accumulate sweep
                    + 1ull * n * bsz;   // normalization divides
  }
  if (n == 0 || bsz == 0) {
    if (stats) {
      const double elapsed = timer.seconds();
      stats->score_seconds += elapsed;
      stats->total_seconds += elapsed;
    }
    return c;
  }
  // One V_k-panel sweep: factor i's document column is loaded once per
  // sub-tile and reused by every query. Each scores(j, b) accumulates over i
  // ascending, independent of chunk and tile bounds and of the batch size,
  // so per-query results do not depend on who else shares the batch. The
  // accumulation runs on the dispatched elementwise kernels
  // (la/kernels.hpp): axpy4 drives four query streams off one load of vi,
  // and because elementwise kernels are bit-identical across kernels and to
  // the scalar loop, every parity contract (batched-vs-single, pruned
  // full-probe, concurrent, replicated) holds under any kernel.
  const la::kern::Ops& kern_ops = la::kern::active();
  if (bf16) obs::count("retrieval.bf16_queries", bsz);
  // acc[b * stride + t] += w(i, b) * col(i)[lo + t] for t < len, i ascending,
  // queries with a zero weight skipped, four query streams per load of v_i.
  const auto accumulate = [&](auto* acc, std::size_t stride, auto col,
                              std::size_t lo, std::size_t len, auto axpy,
                              auto axpy4) {
    using Acc = std::remove_pointer_t<decltype(acc)>;
    for (index_t i = 0; i < k; ++i) {
      const auto* vi = col(i) + lo;
      Acc a4[4];
      Acc* y4[4];
      int lanes = 0;
      for (index_t b = 0; b < bsz; ++b) {
        const double wib = w(i, b);
        if (wib == 0.0) continue;
        a4[lanes] = static_cast<Acc>(wib);
        y4[lanes] = acc + b * stride;
        if (++lanes == 4) {
          axpy4(a4, vi, y4[0], y4[1], y4[2], y4[3], len);
          lanes = 0;
        }
      }
      for (int t = 0; t < lanes; ++t) axpy(a4[t], vi, y4[t], len);
    }
  };
  // Each chunk is swept in document sub-tiles sized so that the tile x B
  // accumulators stay in L1 while all k factors pass over them; a whole
  // chunk's (512 x 32 doubles is 128 KiB) would be re-read from L2 once per
  // factor. At B = 1 the tile is the chunk. Tiles also end at V's block
  // edges (util::kBlockRows), so each reads one block's column segments.
  constexpr std::size_t kB = util::kBlockRows;
  const std::size_t tile_rows = std::max<std::size_t>(
      kMinSweepTile,
      kSweepTileBytes / ((bf16 ? sizeof(float) : sizeof(double)) * bsz));
  util::parallel_for_chunks(
      0, n,
      [&](std::size_t chunk_lo, std::size_t chunk_hi) {
        const std::size_t tile = bsz == 1 ? chunk_hi - chunk_lo : tile_rows;
        std::vector<float> acc32(bf16 ? tile * bsz : 0);
        for (std::size_t lo = chunk_lo, len; lo < chunk_hi; lo += len) {
          len = std::min({tile, chunk_hi - lo, (lo / kB + 1) * kB - lo});
          const double* dn = doc_norm.block(lo / kB) + lo % kB;
          if (bf16) {
            // Reduced-precision sweep: stream the bf16 columns, accumulate
            // in a tile-local fp32 buffer, widen and normalize in double.
            // The zero-skip still tests the DOUBLE weight, so the bf16 path
            // scores exactly the terms the fp64 path scores.
            const std::uint16_t* blk = bf16->block(lo / kB);
            std::fill(acc32.begin(), acc32.end(), 0.0f);
            accumulate(acc32.data(), len,
                       [&](index_t i) { return blk + i * util::kBlockStride; },
                       lo % kB, len, kern_ops.axpy_bf16, kern_ops.axpy4_bf16);
            for (index_t b = 0; b < bsz; ++b) {
              kern_ops.cos_norm_f32(query_norm[b], acc32.data() + b * len, dn,
                                    c.col(b).data() + lo, len);
            }
            continue;
          }
          const double* blk = space_.v.block(lo / kB);
          accumulate(c.data() + lo, n,
                     [&](index_t i) { return blk + i * util::kBlockStride; },
                     lo % kB, len, kern_ops.axpy, kern_ops.axpy4);
          // Normalize the tile in place: cosine = dot / (|q'| * |d'|), with
          // la::cosine's zero-norm guard. cos_norm is correctly rounded in
          // every kernel, so the cosines stay bit-identical under dispatch.
          for (index_t b = 0; b < bsz; ++b) {
            kern_ops.cos_norm(query_norm[b], dn, c.col(b).data() + lo, len);
          }
        }
      },
      /*grain=*/512);
  if (stats) {
    const double elapsed = timer.seconds();
    stats->score_seconds += elapsed;
    stats->total_seconds += elapsed;
  }
  return c;
}

std::vector<std::vector<ScoredDoc>> BatchedRetriever::rank(
    const QueryBatch& batch, const SearchOptions& opts, QueryStats* stats,
    std::vector<ScoreMoments>* moments) const {
  if (moments) moments->assign(batch.size(), ScoreMoments{});
  if (ann_ != nullptr && opts.search != SearchMode::kExact) {
    return rank_pruned(batch, opts, stats, moments);
  }
  if (opts.search == SearchMode::kPruned && batch.size() > 0) {
    // kPruned without a structure (small corpus, ann disabled): exact scan,
    // made visible to operators rather than silently absorbed.
    obs::count("ann.exact_fallback_queries", batch.size());
  }
  const la::DenseMatrix c = scores(batch, opts.mode, stats);
  util::WallTimer select_timer;
  std::vector<std::vector<ScoredDoc>> out(batch.size());
  {
    LSI_OBS_SPAN(span, "retrieval.select");
    util::parallel_for(
        0, batch.size(),
        [&](std::size_t b) {
          out[b] = select_ranked(c.col(b), opts);
          if (moments) (*moments)[b] = moments_of(c.col(b));
        },
        /*grain=*/1);
  }
  obs::count("retrieval.batches");
  obs::count("retrieval.queries", batch.size());
  if (stats) {
    const double elapsed = select_timer.seconds();
    stats->select_seconds += elapsed;
    stats->total_seconds += elapsed;
  }
  return out;
}

std::vector<std::vector<ScoredDoc>> BatchedRetriever::rank_pruned(
    const QueryBatch& batch, const SearchOptions& opts, QueryStats* stats,
    std::vector<ScoreMoments>* moments) const {
  util::WallTimer timer;
  LSI_OBS_SPAN(span, "ann.rank");
  const index_t n = space_.num_docs();
  const index_t k = space_.k();
  const index_t bsz = batch.size();
  assert(bsz == 0 || batch.k() == k);
  std::vector<std::vector<ScoredDoc>> out(bsz);
  const index_t nprobe = ann_->resolve_nprobe(opts);
  if (n == 0 || bsz == 0 || nprobe == 0) return out;

  // Weight prep identical to scores(): q' (the query-side coordinates whose
  // norm divides the cosine) additionally drives centroid selection — the
  // centroids live in the document-coordinate geometry q' is compared
  // against. w then folds the document-side sigma in, exactly as the exact
  // sweep does, so each candidate's accumulation below reproduces the exact
  // path's arithmetic bit for bit.
  la::DenseMatrix w = batch.projected();
  la::DenseMatrix qprime(k, bsz);
  std::vector<double> query_norm(bsz);
  for (index_t b = 0; b < bsz; ++b) {
    auto wb = w.col(b);
    if (opts.mode == SimilarityMode::kColumnSpace) {
      for (index_t i = 0; i < k; ++i) wb[i] *= space_.sigma[i];
    }
    query_norm[b] = la::norm2(wb);
    auto qp = qprime.col(b);
    for (index_t i = 0; i < k; ++i) qp[i] = wb[i];
    if (opts.mode != SimilarityMode::kPlainV) {
      for (index_t i = 0; i < k; ++i) wb[i] *= space_.sigma[i];
    }
  }
  // Same precision switch as scores(): with compression on, re-rank decodes
  // the stored bf16 words and divides by the decoded-value norms, so a
  // full-probe pruned ranking stays bit-identical to the exact bf16 sweep.
  const Bf16DocStore* bf16 = space_.compressed_docs();
  // The norms live in V's 512-row blocks; one pointer per block keeps a
  // candidate's lookup to two loads.
  const util::RowBlocks<double>& norms =
      bf16 ? bf16->doc_norms(opts.mode) : space_.doc_norms(opts.mode);
  std::vector<const double*> norm_blocks;
  for (std::size_t b = 0; b < norms.num_blocks(); ++b) {
    norm_blocks.push_back(norms.block(b));
  }
  const std::size_t z = opts.z;
  const double min_cos = opts.min_cosine;

  std::vector<std::uint64_t> scanned(bsz, 0);
  util::parallel_for(
      0, bsz,
      [&](std::size_t b) {
        std::vector<index_t> clusters;
        ann_->select_clusters(qprime.col(b), nprobe, clusters);
        const double qn = query_norm[b];
        const auto wb = w.col(b);
        // fp32 weights for the bf16 chain, cast exactly like the exact
        // sweep's lane setup; the zero-skip still tests the double weight.
        std::vector<float> w32;
        if (bf16) {
          w32.resize(k);
          for (index_t i = 0; i < k; ++i) {
            w32[i] = static_cast<float>(wb[i]);
          }
        }
        const bool ann_bf16 = bf16 != nullptr && ann_->has_bf16();
        const bool bounded = z > 0;
        std::vector<ScoredDoc> keep;
        keep.reserve(bounded ? z + 1 : 0);
        // Background moments cover every SCANNED candidate (the pruned
        // analogue of the exact sweep's all-documents statistics), gathered
        // before the min_cosine filter.
        std::vector<double> bg;
        std::uint64_t cand_count = 0;
        // Each centroid's list is its base segment, then its tail: one
        // ascending list, scanned in the order a single list would be.
        for (const index_t c : clusters) {
          for (const AnnIndex::PostingSpan& seg : ann_->postings(c)) {
            cand_count += seg.docs.size();
            for (std::size_t t = 0; t < seg.docs.size(); ++t) {
              const index_t j = seg.docs[t];
              double score;
              if (bf16) {
                // Decode the SAME encoded words the exact bf16 sweep streams
                // (packed posting rows when available, else a strided
                // gather from the store) and accumulate the same fp32 chain.
                float acc = 0.0f;
                if (ann_bf16) {
                  const std::uint16_t* row16 = seg.rows16.data() + t * k;
                  for (index_t i = 0; i < k; ++i) {
                    if (wb[i] == 0.0) continue;
                    acc += w32[i] * la::kern::bf16_to_f32(row16[i]);
                  }
                } else {
                  for (index_t i = 0; i < k; ++i) {
                    if (wb[i] == 0.0) continue;
                    acc += w32[i] * la::kern::bf16_to_f32(bf16->word(j, i));
                  }
                }
                score = static_cast<double>(acc);
              } else {
                const double* row = seg.rows.data() + t * k;
                // Same accumulation as the exact sweep: i ascending, zero
                // weights skipped (they are skipped there too, so skipping
                // is not an approximation).
                double acc = 0.0;
                for (index_t i = 0; i < k; ++i) {
                  const double wib = wb[i];
                  if (wib == 0.0) continue;
                  acc += wib * row[i];
                }
                score = acc;
              }
              const double dn =
                  norm_blocks[j / util::kBlockRows][j % util::kBlockRows];
              const ScoredDoc cand{
                  j, (qn == 0.0 || dn == 0.0) ? 0.0 : score / (qn * dn)};
              if (moments) bg.push_back(cand.cosine);
              if (cand.cosine < min_cos) continue;
              if (!bounded) {
                keep.push_back(cand);
              } else if (keep.size() < z) {
                keep.push_back(cand);
                std::push_heap(keep.begin(), keep.end(), by_rank);
              } else if (by_rank(cand, keep.front())) {
                std::pop_heap(keep.begin(), keep.end(), by_rank);
                keep.back() = cand;
                std::push_heap(keep.begin(), keep.end(), by_rank);
              }
            }
          }
        }
        // ranks_before is a strict total order over distinct doc ids, so the
        // sorted top-z is unique no matter the candidate enumeration order —
        // the property that makes nprobe == num_centroids bit-identical to
        // the exact scan.
        std::sort(keep.begin(), keep.end(), by_rank);
        out[b] = std::move(keep);
        if (moments) (*moments)[b] = moments_of(bg);
        scanned[b] = cand_count;
      },
      /*grain=*/1);

  std::uint64_t total_scanned = 0;
  for (const std::uint64_t s : scanned) total_scanned += s;
  obs::count("retrieval.batches");
  obs::count("retrieval.queries", bsz);
  obs::count("ann.pruned_queries", bsz);
  obs::gauge("ann.probed_centroids", static_cast<double>(nprobe));
  obs::gauge("ann.scanned_docs",
             static_cast<double>(total_scanned) / static_cast<double>(bsz));
  if (stats) {
    stats->batch_size += bsz;
    stats->ann_pruned_queries += bsz;
    stats->ann_centroids_probed +=
        static_cast<std::uint64_t>(nprobe) * bsz;
    stats->ann_docs_scanned += total_scanned;
    stats->flops += 3ull * k * bsz                                // weight prep
                    + 2ull * ann_->num_centroids() * k * bsz      // centroids
                    + 2ull * total_scanned * k + total_scanned;   // re-rank
    const double elapsed = timer.seconds();
    stats->score_seconds += elapsed;
    stats->total_seconds += elapsed;
  }
  return out;
}

Expected<std::vector<std::vector<ScoredDoc>>> BatchedRetriever::try_rank(
    const QueryBatch& batch, const SearchOptions& opts,
    QueryStats* stats) const {
  if (Status s = opts.Validate(); !s.ok()) return s;
  if (batch.size() > 0 && batch.k() != space_.k()) {
    return Status::InvalidArgument(
        "batch was projected with k = " + std::to_string(batch.k()) +
        ", this retriever's space has k = " + std::to_string(space_.k()));
  }
  if (opts.deadline_expired()) {
    return Status::DeadlineExceeded(
        "search deadline expired before scoring began");
  }
  return rank(batch, opts, stats);
}

}  // namespace lsi::core
