#pragma once
// The Lanczos solver's convergence test (la/lanczos.cpp defines it), in its
// own header so tests can hold it against a dense reference.

#include <span>

#include "la/dense.hpp"

namespace lsi::la {

/// Of the min(k, j) largest Ritz triplets of the j-step Golub–Kahan
/// bidiagonal B (B(i, i) = alphas[i], B(i, i+1) = betas[i], and betas[j-1]
/// = beta_j couples step j to the next Lanczos vector), counts those with
///     |beta_j * P(j-1, i)| / sigma_1 <= tol,
/// P the left singular vectors of B — the Ritz residual relative to
/// sigma_1. Returns k when sigma_1 is 0.
///
/// Runs QL on the 2j x 2j Golub–Kahan tridiagonal (zero diagonal,
/// off-diagonal alpha_1, beta_1, ..., alpha_j), whose eigenvalues are
/// +-sigma_i, accumulating only the last eigenvector row: O(j^2), where an
/// SVD of B costs O(j^3). The eigenvectors of the pair +-sigma_i span
/// (q_i, 0) and (0, p_i) interleaved, so their two last entries z+ and z-
/// give |P(j-1, i)| = hypot(z+, z-) — for sigma_i > 0, where each is
/// +-P(j-1, i) / sqrt(2), and for sigma_i = 0, where the pair need not
/// split so.
index_t ritz_converged(std::span<const double> alphas,
                       std::span<const double> betas, index_t k, double tol);

}  // namespace lsi::la
