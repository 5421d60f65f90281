#pragma once
// Term weighting (Section 2.1, Equation 5):  a_ij = L(i, j) x G(i).
//
// L is the local weight of term i in document j (a function of tf_ij) and
// G the global weight of term i across the collection. The paper reports
// (Section 5.1) that log local x entropy global was the most effective
// scheme, ~40% better than raw term frequency; bench_weighting reproduces
// that comparison on synthetic collections.

#include <string>
#include <vector>

#include "la/sparse.hpp"
#include "la/vector_ops.hpp"

namespace lsi::weighting {

enum class LocalWeight {
  kRawTf,      ///< L = tf
  kBinary,     ///< L = 1 if tf > 0
  kLog,        ///< L = log2(1 + tf)
  kAugmented,  ///< L = 0.5 + 0.5 * tf / max_tf_in_document
};

enum class GlobalWeight {
  kNone,     ///< G = 1
  kIdf,      ///< G = log2(n / df)
  kEntropy,  ///< G = 1 + sum_j p_ij log2 p_ij / log2 n,  p_ij = tf_ij / gf_i
  kGfIdf,    ///< G = gf / df
  kNormal,   ///< G = 1 / sqrt(sum_j tf_ij^2)
};

struct Scheme {
  LocalWeight local = LocalWeight::kRawTf;
  GlobalWeight global = GlobalWeight::kNone;
};

/// The paper's best performer: log x entropy.
inline constexpr Scheme kLogEntropy{LocalWeight::kLog, GlobalWeight::kEntropy};
/// Raw counts (the Section 3 example uses this: "term weighting is not
/// used").
inline constexpr Scheme kRaw{LocalWeight::kRawTf, GlobalWeight::kNone};

std::string name(LocalWeight w);
std::string name(GlobalWeight w);
std::string name(const Scheme& s);

/// Global weight vector G(i) for every term, from raw counts.
std::vector<double> global_weights(const lsi::la::CscMatrix& counts,
                                   GlobalWeight g);

/// Applies Equation 5 to raw counts: returns [L(i,j) * G(i)].
lsi::la::CscMatrix apply(const lsi::la::CscMatrix& counts, const Scheme& s);

/// Applies Equation 5 with an externally-supplied global weight vector
/// (one G(i) per row of `counts`) instead of deriving G from the local
/// counts. This is the hook the cross-shard term-statistics exchange uses:
/// each shard's local weights stay local, but G comes from the COLLECTION-
/// wide statistics so all shards weight a term identically.
lsi::la::CscMatrix apply_with_global(const lsi::la::CscMatrix& counts,
                                     LocalWeight local,
                                     const std::vector<double>& g);

/// Weights a raw query/document term-frequency vector consistently with the
/// collection weighting: element i becomes L(tf_i) * G(i) using the
/// *collection's* global weights (queries carry no global statistics). Only
/// the positive entries are visited, so the cost is O(nnz); kAugmented's
/// max_tf over them equals the max over the dense vector. Entries whose
/// weight is exactly zero (e.g. G(i) = 0) are dropped, so the result holds
/// nonzeros only, like a CscMatrix column.
lsi::la::SparseVector apply_to_sparse(const lsi::la::SparseVector& tf,
                                      const std::vector<double>& g,
                                      LocalWeight l);

/// All local x global combinations, for sweeps.
std::vector<Scheme> all_schemes();

/// Section 4.1/4.2 correction-step inputs: when the global weights of some
/// terms change (because documents were added), the rank-j update
/// W = A_k + Y_j Z_j^T adjusts the affected rows. Y_j selects the changed
/// term rows (m x j, columns of the identity); Z_j holds the row deltas
/// (n x j): Z_j(:, c) = (g_new/g_old - 1) * (row of the weighted matrix).
struct WeightCorrection {
  lsi::la::DenseMatrix y;          ///< m x j selector
  lsi::la::DenseMatrix z;          ///< n x j deltas
  std::vector<lsi::la::index_t> terms;  ///< changed term rows
};

/// Builds (Y_j, Z_j) taking the weighted matrix from `old_g` to `new_g`,
/// given raw counts and the local weight in force. Terms whose global weight
/// changes by less than `tol` (relative) are skipped.
WeightCorrection weight_correction(const lsi::la::CscMatrix& counts,
                                   LocalWeight local,
                                   const std::vector<double>& old_g,
                                   const std::vector<double>& new_g,
                                   double tol = 1e-12);

}  // namespace lsi::weighting
