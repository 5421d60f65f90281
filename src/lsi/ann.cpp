#include "lsi/ann.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

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

/// Gathers documents [lo, hi)'s sigma-scaled coordinates into a row-major
/// buffer, reading V column-by-column (V is column-major; a row-by-row
/// gather would stride by n on every element).
void gather_scaled_rows(const SemanticSpace& space, std::size_t lo,
                        std::size_t hi, std::vector<double>& buf) {
  const index_t k = space.k();
  buf.resize((hi - lo) * k);
  for (index_t i = 0; i < k; ++i) {
    const double* vi = space.v.col(i).data();
    const double s = space.sigma[i];
    for (std::size_t j = lo; j < hi; ++j) buf[(j - lo) * k + i] = vi[j] * s;
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

}  // namespace

Status AnnOptions::Validate() const {
  if (training_sample == 0) {
    return Status::InvalidArgument(
        "ann.training_sample must be at least 1 (k-means needs data)");
  }
  return Status::Ok();
}

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

void AnnIndex::regroup(const SemanticSpace& space,
                       const std::vector<index_t>& assign) {
  const std::size_t n = assign.size();
  const index_t c_count = centroids_.cols();
  offsets_.assign(c_count + 1, 0);
  for (std::size_t j = 0; j < n; ++j) ++offsets_[assign[j] + 1];
  for (index_t c = 0; c < c_count; ++c) offsets_[c + 1] += offsets_[c];
  docs_.resize(n);
  std::vector<index_t> cursor(offsets_.begin(), offsets_.end() - 1);
  // j ascending => posting lists ascending by local doc id.
  for (std::size_t j = 0; j < n; ++j) docs_[cursor[assign[j]]++] = j;
  // Pack each posting's raw V_k row (bit-exact copies: the pruned re-rank
  // must reproduce the exact sweep's arithmetic). Column-by-column so the
  // reads of V are sequential per column.
  rows_.resize(n * static_cast<std::size_t>(k_));
  for (index_t i = 0; i < k_; ++i) {
    const double* vi = space.v.col(i).data();
    for (std::size_t pos = 0; pos < n; ++pos) {
      rows_[pos * k_ + i] = vi[docs_[pos]];
    }
  }
  // When the space carries a compressed store, mirror its encoded words into
  // posting order too (verbatim copies, never re-encoded from V: the pruned
  // bf16 re-rank must decode exactly what the exact bf16 sweep decodes).
  if (const Bf16DocStore* store = space.compressed_docs()) {
    rows16_.resize(n * static_cast<std::size_t>(k_));
    for (index_t i = 0; i < k_; ++i) {
      const std::uint16_t* ci = store->col(i);
      for (std::size_t pos = 0; pos < n; ++pos) {
        rows16_[pos * k_ + i] = ci[docs_[pos]];
      }
    }
  }
  num_docs_ = n;
}

double AnnIndex::mean_fit(std::span<const double> sigma) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (index_t c = 0; c < num_centroids(); ++c) {
    const double* cen = centroids_.col(c).data();
    for (index_t pos = offsets_[c]; pos < offsets_[c + 1]; ++pos) {
      const double* row = rows_.data() + pos * k_;
      double dot = 0.0, nrm = 0.0;
      for (index_t i = 0; i < k_; ++i) {
        const double x = row[i] * sigma[i];
        dot += x * cen[i];
        nrm += x * x;
      }
      if (nrm > 0.0) {
        sum += dot / std::sqrt(nrm);
        ++count;
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
  const std::size_t sample =
      std::min<std::size_t>(n, std::max<index_t>(opts.training_sample, 1));
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
  la::DenseMatrix& centroids = ann->centroids_;
  centroids = la::DenseMatrix(k, c_count);

  // k-means++ seeding over the unit sample, squared chordal distance
  // 2 - 2*cos as the D^2 weight. All randomness flows from opts.seed.
  util::Rng rng(opts.seed);
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
  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
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
  ann->regroup(space, assign_documents(space, centroids, 0));
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

  auto ann = std::shared_ptr<AnnIndex>(new AnnIndex());
  ann->opts_ = opts_;
  ann->k_ = k_;
  ann->generation_ = generation_;  // the partition is unchanged
  ann->built_docs_ = built_docs_;
  ann->built_fit_ = built_fit_;
  ann->centroids_ = centroids_;

  // Only the appended rows are assigned; existing documents keep theirs.
  const std::size_t old_n = num_docs_;
  const std::vector<index_t> tail = assign_documents(space, centroids_, old_n);
  const index_t c_count = num_centroids();
  const Bf16DocStore* store = space.compressed_docs();
  if (has_bf16() != (store != nullptr)) {
    // The bf16 mirror appears or disappears: there are no old packed words
    // to copy (or the old ones must go), so repack everything from V.
    std::vector<index_t> assign(n);
    for (index_t c = 0; c < c_count; ++c) {
      for (index_t pos = offsets_[c]; pos < offsets_[c + 1]; ++pos) {
        assign[docs_[pos]] = c;
      }
    }
    std::copy(tail.begin(), tail.end(), assign.begin() + old_n);
    ann->regroup(space, assign);
    obs::count("ann.extends");
    return ann;
  }

  // Each posting list grows only at its end (new local ids exceed every old
  // one, so lists stay ascending): copy the old segments contiguously into
  // their shifted offsets, then pack just the appended documents. V's old
  // rows and the store's old words are untouched by appends, so the result
  // is bit-identical to a full regroup of the same assignment.
  const index_t k = k_;
  ann->offsets_.assign(c_count + 1, 0);
  for (const index_t c : tail) ++ann->offsets_[c + 1];
  for (index_t c = 0; c < c_count; ++c) {
    ann->offsets_[c + 1] += ann->offsets_[c] + (offsets_[c + 1] - offsets_[c]);
  }
  ann->docs_.resize(n);
  ann->rows_.resize(n * k);
  if (store != nullptr) ann->rows16_.resize(n * k);
  std::vector<index_t> cursor(c_count);
  for (index_t c = 0; c < c_count; ++c) {
    const std::size_t from = offsets_[c];
    const std::size_t len = offsets_[c + 1] - from;
    const std::size_t to = ann->offsets_[c];
    std::copy_n(docs_.data() + from, len, ann->docs_.data() + to);
    std::copy_n(rows_.data() + from * k, len * k, ann->rows_.data() + to * k);
    if (store != nullptr) {
      std::copy_n(rows16_.data() + from * k, len * k,
                  ann->rows16_.data() + to * k);
    }
    cursor[c] = to + len;
  }
  for (std::size_t t = 0; t < tail.size(); ++t) {
    const std::size_t j = old_n + t;
    const std::size_t pos = cursor[tail[t]]++;
    ann->docs_[pos] = j;
    for (index_t i = 0; i < k; ++i) {
      ann->rows_[pos * k + i] = space.v(j, i);
      if (store != nullptr) ann->rows16_[pos * k + i] = store->col(i)[j];
    }
  }
  ann->num_docs_ = n;

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

  auto ann = std::shared_ptr<AnnIndex>(new AnnIndex());
  double fit = 0.0;
  {
    LSI_OBS_SPAN(span, "ann.rotate");
    ann->opts_ = opts_;
    ann->k_ = k_;
    ann->generation_ = generation_;
    ann->built_docs_ = built_docs_;
    ann->built_fit_ = built_fit_;
    // A centroid is a direction among the documents, so it moves like one:
    // c^T -> c^T M, renormalized (an orthogonal M keeps it unit already).
    ann->centroids_ = la::multiply_at_b(map, centroids_);
    const index_t c_count = num_centroids();
    for (index_t c = 0; c < c_count; ++c) {
      auto col = ann->centroids_.col(c);
      double nrm = 0.0;
      for (index_t i = 0; i < k_; ++i) nrm += col[i] * col[i];
      nrm = std::sqrt(nrm);
      if (nrm > 0.0) {
        for (index_t i = 0; i < k_; ++i) col[i] /= nrm;
      }
    }

    // Old documents keep their lists; the re-projected ones (and any this
    // structure never covered) go to the nearest rotated centroid.
    const std::size_t carried = std::min<std::size_t>(kept, num_docs_);
    std::vector<index_t> assign(n);
    for (index_t c = 0; c < c_count; ++c) {
      for (index_t pos = offsets_[c]; pos < offsets_[c + 1]; ++pos) {
        if (docs_[pos] < carried) assign[docs_[pos]] = c;
      }
    }
    const std::vector<index_t> tail =
        assign_documents(space, ann->centroids_, carried);
    std::copy(tail.begin(), tail.end(), assign.begin() + carried);
    ann->regroup(space, assign);
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
