#include "lsi/ann.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "la/kernels.hpp"
#include "lsi/doc_store.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lsi::core {

namespace {

/// Chunk size for the assignment passes: the per-chunk gathered row buffer
/// (chunk * k doubles) stays L2-resident for the k values in use here.
constexpr std::size_t kAssignChunk = 256;

/// Lloyd iteration bound after k-means++ seeding (small on purpose: the
/// structure only prunes candidates, exactness comes from the re-rank).
constexpr std::size_t kMaxIterations = 6;
/// k-means trains on at most this many documents (stride-sampled
/// deterministically); the final assignment pass always covers all n.
constexpr std::size_t kTrainingSample = 65536;
/// Seed for k-means++ sampling (part of the determinism contract).
constexpr std::uint64_t kSeed = 0xC105731DULL;

/// Gathers documents [lo, hi)'s sigma-scaled coordinates into a row-major
/// buffer, reading V column by column within each block.
void gather_scaled_rows(const SemanticSpace& space, std::size_t lo,
                        std::size_t hi, std::vector<double>& buf) {
  const index_t k = space.k();
  constexpr std::size_t kB = util::kBlockRows;
  buf.resize((hi - lo) * k);
  for (std::size_t j = lo; j < hi;) {
    const std::size_t len = std::min(hi - j, kB - j % kB);
    const double* blk = space.v.block(j / kB) + j % kB;
    for (index_t i = 0; i < k; ++i) {
      const double s = space.sigma[i];
      for (std::size_t t = 0; t < len; ++t) {
        buf[(j + t - lo) * k + i] = blk[i * util::kBlockStride + t] * s;
      }
    }
    j += len;
  }
}

/// Best centroid for one k-vector: highest dot product, ties toward the
/// lower centroid id. Positive rescaling of `row` never changes the argmax
/// over unit centroids, so callers pass unnormalized coordinates.
index_t nearest_centroid(const double* row, const la::DenseMatrix& centroids) {
  const index_t k = centroids.rows();
  const index_t c_count = centroids.cols();
  const la::kern::Ops& kern_ops = la::kern::active();
  index_t best = 0;
  double best_dot = -std::numeric_limits<double>::infinity();
  for (index_t c = 0; c < c_count; ++c) {
    const double dot = kern_ops.dot(centroids.col(c).data(), row, k);
    if (dot > best_dot) {
      best_dot = dot;
      best = c;
    }
  }
  return best;
}

/// Assigns documents [from, n) to their nearest centroid (assign[j - from]),
/// in parallel over disjoint chunks — deterministic: centroids are read-only
/// and every chunk writes only its own assign slots.
std::vector<index_t> assign_documents(const SemanticSpace& space,
                                      const la::DenseMatrix& centroids,
                                      std::size_t from) {
  const std::size_t n = space.num_docs();
  const index_t k = space.k();
  std::vector<index_t> assign(n - from);
  util::parallel_for_chunks(
      from, n,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> buf;
        gather_scaled_rows(space, lo, hi, buf);
        for (std::size_t j = lo; j < hi; ++j) {
          assign[j - from] =
              nearest_centroid(buf.data() + (j - lo) * k, centroids);
        }
      },
      /*grain=*/kAssignChunk);
  return assign;
}

/// Appends one segment's column-major len x k block to `out` row-major.
template <class T>
void append_rows(std::span<const T> block, std::size_t len, index_t k,
                 std::vector<T>& out) {
  const std::size_t base = out.size();
  out.resize(base + block.size());
  for (std::size_t t = 0; t < len; ++t) {
    for (index_t i = 0; i < k; ++i) out[base + t * k + i] = block[i * len + t];
  }
}

}  // namespace

index_t AnnIndex::resolve_nprobe(const SearchOptions& opts) const noexcept {
  const index_t c_count = num_centroids();
  if (c_count == 0) return 0;
  if (opts.nprobe > 0) {
    return std::min<index_t>(opts.nprobe, c_count);
  }
  // recall_target -> nprobe (docs/ANN.md): sqrt(C) probes — the classic
  // cluster-pruning operating point — aim at the default 0.95 target;
  // below it the count shrinks proportionally, above it the remaining 5% of
  // target sweeps linearly up to every centroid, so a target of 1.0 probes
  // all C and is bit-identical to the exact scan. Monotone non-decreasing
  // in the target by construction.
  const double base = std::ceil(std::sqrt(static_cast<double>(c_count)));
  const double t = opts.recall_target;
  double np;
  if (t <= 0.95) {
    np = std::ceil(base * t / 0.95);
  } else {
    np = base + std::ceil((static_cast<double>(c_count) - base) *
                          ((t - 0.95) / 0.05));
  }
  return std::clamp<index_t>(static_cast<index_t>(np), 1, c_count);
}

void AnnIndex::select_clusters(std::span<const double> query_coords,
                               index_t nprobe,
                               std::vector<index_t>& out) const {
  assert(query_coords.size() == static_cast<std::size_t>(k_));
  const index_t c_count = num_centroids();
  nprobe = std::min(nprobe, c_count);
  // Centroid scoring is a pure dot reduction, so it runs on the dispatched
  // kernel; cluster choice may differ across kernels on near-ties, which
  // only moves recall, never correctness (the re-rank below stays exact).
  const la::kern::Ops& kern_ops = la::kern::active();
  std::vector<double> score(c_count);
  for (index_t c = 0; c < c_count; ++c) {
    score[c] = kern_ops.dot(centroids_.col(c).data(), query_coords.data(), k_);
  }
  out.resize(c_count);
  std::iota(out.begin(), out.end(), index_t{0});
  // One fixed total order (score descending, id ascending) for every nprobe:
  // the top-p prefix is nested in the top-(p+1) prefix, which is what makes
  // recall monotone in nprobe (tests/lsi/ann_pruning_test.cpp).
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(nprobe),
                    out.end(), [&](index_t a, index_t b) {
                      if (score[a] != score[b]) return score[a] > score[b];
                      return a < b;
                    });
  out.resize(nprobe);
}

std::shared_ptr<const AnnIndex::Postings> AnnIndex::regroup(
    const SemanticSpace& space, const std::vector<index_t>& assign,
    index_t first) const {
  const std::size_t n = assign.size();
  const index_t c_count = num_centroids();
  auto out = std::make_shared<Postings>();
  out->offsets.assign(c_count + 1, 0);
  for (std::size_t t = 0; t < n; ++t) ++out->offsets[assign[t] + 1];
  for (index_t c = 0; c < c_count; ++c) {
    out->offsets[c + 1] += out->offsets[c];
  }
  out->docs.resize(n);
  std::vector<index_t> cursor(out->offsets.begin(), out->offsets.end() - 1);
  // t ascending => posting lists ascending by local doc id.
  for (std::size_t t = 0; t < n; ++t) {
    out->docs[cursor[assign[t]]++] = first + t;
  }
  // Pack each posting's raw V_k row (bit-exact copies: the pruned re-rank
  // must reproduce the exact sweep's arithmetic). V is walked in document
  // order, one block at a time, and each row lands at its posting position;
  // then each segment's len x k rows turn column-major in place. Writing the
  // columns straight from V would scatter every row over k cache lines.
  std::vector<index_t> position(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    position[out->docs[pos] - first] = pos;
  }
  const auto pack = [&](const auto& blocks, auto& rows) {
    constexpr std::size_t kB = util::kBlockRows;
    rows.resize(n * static_cast<std::size_t>(k_));
    for (std::size_t t = 0; t < n;) {
      const std::size_t j = first + t;
      const std::size_t len = std::min(n - t, kB - j % kB);
      const auto* blk = blocks.block(j / kB) + j % kB;
      for (std::size_t r = 0; r < len; ++r) {
        auto* dst = rows.data() + position[t + r] * k_;
        for (index_t i = 0; i < k_; ++i) {
          dst[i] = blk[i * util::kBlockStride + r];
        }
      }
      t += len;
    }
    std::vector<std::remove_reference_t<decltype(rows[0])>> seg_rows;
    for (index_t c = 0; c < c_count; ++c) {
      const std::size_t lo = out->offsets[c], len = out->offsets[c + 1] - lo;
      auto* seg = rows.data() + lo * k_;
      seg_rows.assign(seg, seg + len * k_);
      for (std::size_t t = 0; t < len; ++t) {
        for (index_t i = 0; i < k_; ++i) {
          seg[i * len + t] = seg_rows[t * k_ + i];
        }
      }
    }
  };
  pack(space.v, out->rows);
  // When the space carries a compressed store, mirror its encoded words into
  // posting order too (verbatim copies, never re-encoded from V: the pruned
  // bf16 re-rank must decode exactly what the exact bf16 sweep decodes).
  if (bf16_) pack(*space.compressed_docs(), out->rows16);
  return out;
}

void AnnIndex::set_base(const SemanticSpace& space,
                        const std::vector<index_t>& assign) {
  bf16_ = space.compressed_docs() != nullptr;
  base_ = regroup(space, assign, 0);
  tail_ = regroup(space, {}, assign.size());
  base_docs_ = assign.size();
  num_docs_ = assign.size();
}

std::vector<index_t> AnnIndex::cluster_docs(index_t c) const {
  std::vector<index_t> out;
  for (const PostingSpan& p : postings(c)) {
    out.insert(out.end(), p.docs.begin(), p.docs.end());
  }
  return out;
}

std::vector<double> AnnIndex::cluster_rows(index_t c) const {
  std::vector<double> out;
  for (const PostingSpan& p : postings(c)) {
    append_rows(p.rows, p.docs.size(), k_, out);
  }
  return out;
}

std::vector<std::uint16_t> AnnIndex::cluster_rows_bf16(index_t c) const {
  std::vector<std::uint16_t> out;
  for (const PostingSpan& p : postings(c)) {
    append_rows(p.rows16, p.docs.size(), k_, out);
  }
  return out;
}

double AnnIndex::mean_fit(std::span<const double> sigma) const {
  double sum = 0.0;
  std::size_t count = 0;
  std::vector<double> dot, nrm;
  for (index_t c = 0; c < num_centroids(); ++c) {
    const double* cen = centroids_.col(c).data();
    for (const PostingSpan& p : postings(c)) {
      // Column by column, but each document's two sums still add i
      // ascending, so they are the sums a row at a time would give.
      const std::size_t len = p.docs.size();
      dot.assign(len, 0.0);
      nrm.assign(len, 0.0);
      for (index_t i = 0; i < k_; ++i) {
        const double* col = p.col(i);
        for (std::size_t t = 0; t < len; ++t) {
          const double x = col[t] * sigma[i];
          dot[t] += x * cen[i];
          nrm[t] += x * x;
        }
      }
      for (std::size_t t = 0; t < len; ++t) {
        if (nrm[t] > 0.0) {
          sum += dot[t] / std::sqrt(nrm[t]);
          ++count;
        }
      }
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 1.0;
}

std::shared_ptr<const AnnIndex> AnnIndex::build(const SemanticSpace& space,
                                                const AnnOptions& opts,
                                                std::uint64_t generation) {
  const std::size_t n = space.num_docs();
  const index_t k = space.k();
  if (!opts.enabled || k == 0 || n == 0 ||
      n < static_cast<std::size_t>(opts.exact_cutoff)) {
    return nullptr;
  }
  LSI_OBS_SPAN(span, "ann.build");

  // Deterministic stride subsample for training (the final assignment pass
  // covers every document regardless).
  const std::size_t sample = std::min(n, kTrainingSample);
  std::vector<double> x;  // sample x k row-major, unit rows
  x.resize(sample * k);
  {
    std::vector<double> buf;
    for (std::size_t t = 0; t < sample; ++t) {
      const std::size_t j = t * n / sample;
      gather_scaled_rows(space, j, j + 1, buf);
      double nrm = 0.0;
      for (index_t i = 0; i < k; ++i) nrm += buf[i] * buf[i];
      nrm = std::sqrt(nrm);
      for (index_t i = 0; i < k; ++i) {
        x[t * k + i] = nrm > 0.0 ? buf[i] / nrm : 0.0;
      }
    }
  }

  index_t c_count = opts.num_centroids > 0
                        ? opts.num_centroids
                        : static_cast<index_t>(
                              std::ceil(std::sqrt(static_cast<double>(n))));
  c_count = std::clamp<index_t>(c_count, 1, static_cast<index_t>(sample));

  auto ann = std::shared_ptr<AnnIndex>(new AnnIndex());
  ann->opts_ = opts;
  ann->k_ = k;
  ann->generation_ = generation;
  ann->built_docs_ = n;
  la::DenseMatrix centroids(k, c_count);

  // k-means++ seeding over the unit sample, squared chordal distance
  // 2 - 2*cos as the D^2 weight. All randomness flows from kSeed.
  util::Rng rng(kSeed);
  std::vector<double> dist(sample, 2.0);
  {
    const std::size_t first = rng.uniform_index(sample);
    auto col = centroids.col(0);
    for (index_t i = 0; i < k; ++i) col[i] = x[first * k + i];
  }
  for (index_t c = 1; c < c_count; ++c) {
    const double* prev = centroids.col(c - 1).data();
    util::parallel_for(
        0, sample,
        [&](std::size_t t) {
          double dot = 0.0;
          for (index_t i = 0; i < k; ++i) dot += prev[i] * x[t * k + i];
          dist[t] = std::min(dist[t], std::max(0.0, 2.0 - 2.0 * dot));
        },
        /*grain=*/1024);
    const double total = std::accumulate(dist.begin(), dist.end(), 0.0);
    std::size_t pick;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      pick = sample - 1;
      for (std::size_t t = 0; t < sample; ++t) {
        r -= dist[t];
        if (r <= 0.0) {
          pick = t;
          break;
        }
      }
    } else {
      pick = rng.uniform_index(sample);
    }
    auto col = centroids.col(c);
    for (index_t i = 0; i < k; ++i) col[i] = x[pick * k + i];
  }

  // Bounded Lloyd over the sample (spherical k-means: means renormalized).
  std::vector<index_t> assign_s(sample);
  std::vector<double> best_dot(sample);
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    util::parallel_for(
        0, sample,
        [&](std::size_t t) {
          const double* row = x.data() + t * k;
          index_t best = 0;
          double bd = -std::numeric_limits<double>::infinity();
          // Four centroids per pass over the row, each with its own
          // sequential accumulator: the same dot values as one centroid at
          // a time, compared in the same ascending order, with a quarter of
          // the row reloads and four independent add chains.
          index_t c = 0;
          for (; c + 4 <= c_count; c += 4) {
            const double* c0 = centroids.col(c).data();
            const double* c1 = centroids.col(c + 1).data();
            const double* c2 = centroids.col(c + 2).data();
            const double* c3 = centroids.col(c + 3).data();
            double d[4] = {0.0, 0.0, 0.0, 0.0};
            for (index_t i = 0; i < k; ++i) {
              const double r = row[i];
              d[0] += c0[i] * r;
              d[1] += c1[i] * r;
              d[2] += c2[i] * r;
              d[3] += c3[i] * r;
            }
            for (index_t q = 0; q < 4; ++q) {
              if (d[q] > bd) {
                bd = d[q];
                best = c + q;
              }
            }
          }
          for (; c < c_count; ++c) {
            const double* cc = centroids.col(c).data();
            double dot = 0.0;
            for (index_t i = 0; i < k; ++i) dot += cc[i] * row[i];
            if (dot > bd) {
              bd = dot;
              best = c;
            }
          }
          assign_s[t] = best;
          best_dot[t] = bd;
        },
        /*grain=*/256);
    // Sequential accumulation in sample order: deterministic sums.
    la::DenseMatrix sums(k, c_count);
    std::vector<std::size_t> counts(c_count, 0);
    for (std::size_t t = 0; t < sample; ++t) {
      auto col = sums.col(assign_s[t]);
      const double* row = x.data() + t * k;
      for (index_t i = 0; i < k; ++i) col[i] += row[i];
      ++counts[assign_s[t]];
    }
    for (index_t c = 0; c < c_count; ++c) {
      auto sum = sums.col(c);
      double nrm = 0.0;
      for (index_t i = 0; i < k; ++i) nrm += sum[i] * sum[i];
      nrm = std::sqrt(nrm);
      if (counts[c] > 0 && nrm > 0.0) {
        auto col = centroids.col(c);
        for (index_t i = 0; i < k; ++i) col[i] = sum[i] / nrm;
      } else {
        // Empty (or degenerate) cluster: reseed deterministically with the
        // worst-fit sample point — lowest best-dot, ties toward the lower
        // sample index; marking it used keeps two empties distinct.
        std::size_t victim = 0;
        double worst = std::numeric_limits<double>::infinity();
        for (std::size_t t = 0; t < sample; ++t) {
          if (best_dot[t] < worst) {
            worst = best_dot[t];
            victim = t;
          }
        }
        best_dot[victim] = std::numeric_limits<double>::infinity();
        auto col = centroids.col(c);
        for (index_t i = 0; i < k; ++i) col[i] = x[victim * k + i];
      }
    }
  }

  // Final assignment over ALL documents, then CSR regroup + row packing.
  const std::vector<index_t> assign = assign_documents(space, centroids, 0);
  ann->centroids_ = std::move(centroids);
  ann->set_base(space, assign);
  ann->built_fit_ = ann->mean_fit(space.sigma);

  obs::count("ann.builds");
  obs::gauge("ann.centroids", static_cast<double>(c_count));
  return ann;
}

std::shared_ptr<const AnnIndex> AnnIndex::extend(
    const SemanticSpace& space) const {
  const std::size_t n = space.num_docs();
  assert(n >= num_docs_);
  assert(space.k() == k_);
  LSI_OBS_SPAN(span, "ann.extend");

  auto ann = std::shared_ptr<AnnIndex>(new AnnIndex(*this));
  // The tail's documents keep their centroid; only the appended rows are
  // assigned. Existing documents never move, so base + tail is the same
  // posting list a full regroup of this assignment would give.
  std::vector<index_t> assign(n - base_docs_);
  for (index_t c = 0; c < num_centroids(); ++c) {
    for (const index_t d : tail_->span(c, k_).docs) assign[d - base_docs_] = c;
  }
  const std::vector<index_t> fresh =
      assign_documents(space, centroids_, num_docs_);
  std::copy(fresh.begin(), fresh.end(),
            assign.begin() + (num_docs_ - base_docs_));
  if (bf16_ != (space.compressed_docs() != nullptr)) {
    // The bf16 mirror appears or disappears: the base's packed words are
    // missing (or must go), so repack everything into a new base.
    std::vector<index_t> all(n);
    for (index_t c = 0; c < num_centroids(); ++c) {
      for (const index_t d : base_->span(c, k_).docs) all[d] = c;
    }
    std::copy(assign.begin(), assign.end(), all.begin() + base_docs_);
    ann->set_base(space, all);
  } else {
    ann->tail_ = ann->regroup(space, assign, base_docs_);
    ann->num_docs_ = n;
  }
  obs::count("ann.extends");
  return ann;
}

std::shared_ptr<const AnnIndex> AnnIndex::rotate(
    const SemanticSpace& space, const la::DenseMatrix& map, index_t kept,
    std::uint64_t generation) const {
  const std::size_t n = space.num_docs();
  assert(space.k() == k_);
  assert(map.rows() == k_ && map.cols() == k_);
  assert(kept <= n);
  // max|M^T M - I|: zero for an exact rotation, whatever k is.
  const la::DenseMatrix gram = la::multiply_at_b(map, map);
  double deviation = 0.0;
  for (index_t j = 0; j < k_; ++j) {
    for (index_t i = 0; i < k_; ++i) {
      deviation = std::max(
          deviation, std::abs(gram(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  if (static_cast<double>(n) >=
          kRebuildGrowth * static_cast<double>(built_docs_) ||
      !(deviation <= kRotationTolerance) || built_docs_ > kept) {
    return build(space, opts_, generation);
  }

  auto ann = std::shared_ptr<AnnIndex>(new AnnIndex(*this));
  double fit = 0.0;
  {
    LSI_OBS_SPAN(span, "ann.rotate");
    // A centroid is a direction among the documents, so it moves like one:
    // c^T -> c^T M, renormalized (an orthogonal M keeps it unit already).
    la::DenseMatrix centroids = la::multiply_at_b(map, centroids_);
    const index_t c_count = num_centroids();
    for (index_t c = 0; c < c_count; ++c) {
      auto col = centroids.col(c);
      double nrm = 0.0;
      for (index_t i = 0; i < k_; ++i) nrm += col[i] * col[i];
      nrm = std::sqrt(nrm);
      if (nrm > 0.0) {
        for (index_t i = 0; i < k_; ++i) col[i] /= nrm;
      }
    }

    // Old documents keep their lists (base and tail merge into the new
    // base); the re-projected ones (and any this structure never covered)
    // go to the nearest rotated centroid.
    const std::size_t carried = std::min<std::size_t>(kept, num_docs_);
    std::vector<index_t> assign(n);
    for (index_t c = 0; c < c_count; ++c) {
      for (const PostingSpan& p : postings(c)) {
        for (const index_t d : p.docs) {
          if (d < carried) assign[d] = c;
        }
      }
    }
    const std::vector<index_t> tail =
        assign_documents(space, centroids, carried);
    std::copy(tail.begin(), tail.end(), assign.begin() + carried);
    ann->centroids_ = std::move(centroids);
    ann->set_base(space, assign);
    fit = ann->mean_fit(space.sigma);
  }
  // Documents unlike any the centroids were trained on (a new topic) land
  // far from every centroid, and their neighbours then spread over lists
  // no probe reaches together.
  if (fit < built_fit_ - kFitTolerance) {
    return build(space, opts_, generation);
  }
  obs::count("ann.rotations");
  return ann;
}

}  // namespace lsi::core
