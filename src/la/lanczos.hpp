#pragma once
// Truncated SVD of large sparse matrices by Golub–Kahan–Lanczos
// bidiagonalization with full reorthogonalization.
//
// This is the library's stand-in for SVDPACKC's Lanczos code the paper uses:
// the k-largest singular triplets of a sparse m x n matrix A are extracted
// from the bidiagonal projection built with one A*v and one A^T*u product
// per step. Cost follows the paper's Section 4.2 model
//     I * cost(G^T G x) + trp * cost(G x),
// and the driver reports I (steps) and matvec counts so benches can check
// measured time against the model.

#include <cstdint>

#include "la/sparse.hpp"
#include "la/svd_types.hpp"

namespace lsi::la {

struct LanczosOptions {
  index_t k = 100;          ///< singular triplets wanted
  /// Hard cap on Lanczos steps; 0 -> min(min(m,n), max(6k+48, 128)). The
  /// periodic convergence test stops the expansion as soon as the k Ritz
  /// residuals pass `tol`, so a generous cap only costs time on genuinely
  /// slow (clustered) spectra.
  index_t max_dim = 0;
  double tol = 1e-10;       ///< Ritz residual tolerance, relative to sigma_1
  std::uint64_t seed = 42;  ///< start-vector seed
  bool throw_if_not_converged = false;  ///< else returns best effort
};

struct LanczosStats {
  index_t steps = 0;            ///< Lanczos steps taken (the paper's I)
  index_t matvecs = 0;          ///< A*x products
  index_t matvecs_transpose = 0;  ///< A^T*x products
  index_t converged = 0;        ///< triplets meeting the residual tolerance
  double max_residual = 0.0;    ///< worst accepted Ritz residual / sigma_1
  /// Gram-Schmidt calls whose DGKS test ran a second pass.
  index_t reorth_second_passes = 0;
  /// Measured flops of the dominant kernels: matvecs (via
  /// LinearOperator::apply_flops), the Gram-Schmidt passes actually run
  /// (4 * |w| * count each; a second pass only when the DGKS test asks),
  /// and the final basis-rotation GEMMs. Excluded, so this undercounts: the
  /// periodic Ritz checks (O(steps^2) each, la/ritz_check.hpp) and the one
  /// bidiagonal QR SVD at exit that yields the factors.
  /// Compare against the Section 4.2 model via lsi::flops to get the
  /// predicted-vs-actual rows the benches emit.
  std::uint64_t flops = 0;
};

/// Computes up to opts.k largest singular triplets of `op`. The result holds
/// min(opts.k, steps, min(m,n)) triplets, descending, sign-normalized.
/// Zero matrices yield zero singular values with arbitrary orthonormal
/// vectors. `stats`, when non-null, receives convergence counters.
SvdResult lanczos_svd(const LinearOperator& op, const LanczosOptions& opts,
                      LanczosStats* stats = nullptr);

/// Convenience overload for CSC matrices.
SvdResult lanczos_svd(const CscMatrix& a, const LanczosOptions& opts,
                      LanczosStats* stats = nullptr);

}  // namespace lsi::la
