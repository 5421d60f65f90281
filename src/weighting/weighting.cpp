#include "weighting/weighting.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "text/parser.hpp"

namespace lsi::weighting {

namespace {

double local_weight(LocalWeight w, double tf, double max_tf_in_doc) {
  switch (w) {
    case LocalWeight::kRawTf:
      return tf;
    case LocalWeight::kBinary:
      return tf > 0.0 ? 1.0 : 0.0;
    case LocalWeight::kLog:
      return std::log2(1.0 + tf);
    case LocalWeight::kAugmented:
      return max_tf_in_doc > 0.0 ? 0.5 + 0.5 * tf / max_tf_in_doc : 0.0;
  }
  return tf;
}

std::vector<double> per_document_max_tf(const lsi::la::CscMatrix& counts) {
  std::vector<double> out(counts.cols(), 0.0);
  for (lsi::la::index_t j = 0; j < counts.cols(); ++j) {
    for (double v : counts.col_values(j)) out[j] = std::max(out[j], v);
  }
  return out;
}

}  // namespace

std::string name(LocalWeight w) {
  switch (w) {
    case LocalWeight::kRawTf:
      return "tf";
    case LocalWeight::kBinary:
      return "binary";
    case LocalWeight::kLog:
      return "log";
    case LocalWeight::kAugmented:
      return "augmented";
  }
  return "?";
}

std::string name(GlobalWeight w) {
  switch (w) {
    case GlobalWeight::kNone:
      return "none";
    case GlobalWeight::kIdf:
      return "idf";
    case GlobalWeight::kEntropy:
      return "entropy";
    case GlobalWeight::kGfIdf:
      return "gfidf";
    case GlobalWeight::kNormal:
      return "normal";
  }
  return "?";
}

std::string name(const Scheme& s) {
  return name(s.local) + "x" + name(s.global);
}

std::vector<double> global_weights(const lsi::la::CscMatrix& counts,
                                   GlobalWeight g) {
  const lsi::la::index_t m = counts.rows();
  const auto n = static_cast<double>(counts.cols());
  std::vector<double> out(m, 1.0);
  if (g == GlobalWeight::kNone || m == 0 || counts.cols() == 0) return out;

  const auto df = lsi::text::document_frequencies(counts);
  const auto gf = lsi::text::global_frequencies(counts);

  switch (g) {
    case GlobalWeight::kIdf:
      for (lsi::la::index_t i = 0; i < m; ++i) {
        out[i] = df[i] > 0 ? std::log2(n / static_cast<double>(df[i])) + 1.0
                           : 0.0;
      }
      break;
    case GlobalWeight::kGfIdf:
      for (lsi::la::index_t i = 0; i < m; ++i) {
        out[i] = df[i] > 0 ? gf[i] / static_cast<double>(df[i]) : 0.0;
      }
      break;
    case GlobalWeight::kEntropy: {
      // G(i) = 1 + sum_j (p_ij log2 p_ij) / log2 n. Terms spread evenly over
      // documents score ~0 (uninformative), concentrated terms score ~1.
      std::vector<double> entropy(m, 0.0);
      for (lsi::la::index_t j = 0; j < counts.cols(); ++j) {
        auto rows = counts.col_rows(j);
        auto vals = counts.col_values(j);
        for (std::size_t p = 0; p < rows.size(); ++p) {
          const lsi::la::index_t i = rows[p];
          if (gf[i] <= 0.0) continue;
          const double pij = vals[p] / gf[i];
          if (pij > 0.0) entropy[i] += pij * std::log2(pij);
        }
      }
      const double logn = n > 1.0 ? std::log2(n) : 1.0;
      for (lsi::la::index_t i = 0; i < m; ++i) {
        out[i] = 1.0 + entropy[i] / logn;
      }
      break;
    }
    case GlobalWeight::kNormal: {
      std::vector<double> ss(m, 0.0);
      for (lsi::la::index_t j = 0; j < counts.cols(); ++j) {
        auto rows = counts.col_rows(j);
        auto vals = counts.col_values(j);
        for (std::size_t p = 0; p < rows.size(); ++p) {
          ss[rows[p]] += vals[p] * vals[p];
        }
      }
      for (lsi::la::index_t i = 0; i < m; ++i) {
        out[i] = ss[i] > 0.0 ? 1.0 / std::sqrt(ss[i]) : 0.0;
      }
      break;
    }
    case GlobalWeight::kNone:
      break;
  }
  return out;
}

lsi::la::CscMatrix apply(const lsi::la::CscMatrix& counts, const Scheme& s) {
  const auto g = global_weights(counts, s.global);
  const auto max_tf = per_document_max_tf(counts);
  return counts.transform_values(
      [&](lsi::la::index_t i, lsi::la::index_t j, double tf) {
        return local_weight(s.local, tf, max_tf[j]) * g[i];
      });
}

lsi::la::CscMatrix apply_with_global(const lsi::la::CscMatrix& counts,
                                     LocalWeight local,
                                     const std::vector<double>& g) {
  assert(g.size() == static_cast<std::size_t>(counts.rows()));
  const auto max_tf = per_document_max_tf(counts);
  return counts.transform_values(
      [&](lsi::la::index_t i, lsi::la::index_t j, double tf) {
        return local_weight(local, tf, max_tf[j]) * g[i];
      });
}

lsi::la::SparseVector apply_to_sparse(const lsi::la::SparseVector& tf,
                                      const std::vector<double>& g,
                                      LocalWeight l) {
  double max_tf = 0.0;
  for (double v : tf.values) max_tf = std::max(max_tf, v);
  lsi::la::SparseVector out;
  out.rows.reserve(tf.nnz());
  out.values.reserve(tf.nnz());
  for (std::size_t p = 0; p < tf.nnz(); ++p) {
    if (tf.values[p] <= 0.0) continue;
    assert(tf.rows[p] < g.size());
    const double w = local_weight(l, tf.values[p], max_tf) * g[tf.rows[p]];
    if (w == 0.0) continue;
    out.rows.push_back(tf.rows[p]);
    out.values.push_back(w);
  }
  return out;
}

std::vector<Scheme> all_schemes() {
  std::vector<Scheme> out;
  for (LocalWeight l : {LocalWeight::kRawTf, LocalWeight::kBinary,
                        LocalWeight::kLog, LocalWeight::kAugmented}) {
    for (GlobalWeight g :
         {GlobalWeight::kNone, GlobalWeight::kIdf, GlobalWeight::kEntropy,
          GlobalWeight::kGfIdf, GlobalWeight::kNormal}) {
      out.push_back(Scheme{l, g});
    }
  }
  return out;
}

WeightCorrection weight_correction(const lsi::la::CscMatrix& counts,
                                   LocalWeight local,
                                   const std::vector<double>& old_g,
                                   const std::vector<double>& new_g,
                                   double tol) {
  assert(old_g.size() == counts.rows() && new_g.size() == counts.rows());
  const auto max_tf = per_document_max_tf(counts);

  WeightCorrection out;
  for (lsi::la::index_t i = 0; i < counts.rows(); ++i) {
    const double scale = std::max(std::fabs(old_g[i]), std::fabs(new_g[i]));
    if (scale == 0.0 || std::fabs(new_g[i] - old_g[i]) <= tol * scale) {
      continue;
    }
    out.terms.push_back(i);
  }
  const lsi::la::index_t j = out.terms.size();
  out.y = lsi::la::DenseMatrix(counts.rows(), j);
  out.z = lsi::la::DenseMatrix(counts.cols(), j);
  for (lsi::la::index_t c = 0; c < j; ++c) {
    const lsi::la::index_t term = out.terms[c];
    out.y(term, c) = 1.0;
  }
  // Z columns: delta of the weighted row = (g_new - g_old) * L(tf row).
  for (lsi::la::index_t col = 0; col < counts.cols(); ++col) {
    auto rows = counts.col_rows(col);
    auto vals = counts.col_values(col);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const lsi::la::index_t i = rows[p];
      for (lsi::la::index_t c = 0; c < j; ++c) {
        if (out.terms[c] != i) continue;
        const double lw = local_weight(local, vals[p], max_tf[col]);
        out.z(col, c) = lw * (new_g[i] - old_g[i]);
      }
    }
  }
  return out;
}

}  // namespace lsi::weighting
