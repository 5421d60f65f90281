#include "support/jacobi_svd.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace lsi::la {

namespace {

constexpr int kMaxSweeps = 60;  ///< hard cap on cyclic sweeps
constexpr double kTol = 1e-14;  ///< relative off-diagonal threshold

/// One-sided Jacobi on a matrix with rows >= cols. Returns triplets in
/// arbitrary order; caller sorts.
SvdResult jacobi_tall(const DenseMatrix& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  assert(m >= n);

  DenseMatrix w = a;                       // columns converge to U * diag(s)
  DenseMatrix v = DenseMatrix::identity(n);

  // Columns whose mass has collapsed below eps^2 * ||A||_F^2 are numerically
  // zero. They must be excluded from rotations: a tiny column that is a
  // rounding remnant of another column stays perfectly parallel to it, so
  // the relative off-diagonal test |apq| <= tol*sqrt(app*aqq) can never pass
  // and the sweep would cycle forever.
  const double fro = a.frobenius_norm();
  const double dead = (1e-15 * fro) * (1e-15 * fro);

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (index_t p = 0; p + 1 < n; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        auto wp = w.col(p);
        auto wq = w.col(q);
        const double app = dot(wp, wp);
        const double aqq = dot(wq, wq);
        if (app <= dead || aqq <= dead) continue;
        const double apq = dot(wp, wq);
        if (std::fabs(apq) <= kTol * std::sqrt(app * aqq) ||
            apq == 0.0) {
          continue;
        }
        rotated = true;
        // Classic symmetric 2x2 rotation on the Gram matrix.
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t =
            (zeta >= 0.0 ? 1.0 : -1.0) /
            (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (index_t i = 0; i < m; ++i) {
          const double wpi = wp[i];
          const double wqi = wq[i];
          wp[i] = c * wpi - s * wqi;
          wq[i] = s * wpi + c * wqi;
        }
        auto vp = v.col(p);
        auto vq = v.col(q);
        for (index_t i = 0; i < n; ++i) {
          const double vpi = vp[i];
          const double vqi = vq[i];
          vp[i] = c * vpi - s * vqi;
          vq[i] = s * vpi + c * vqi;
        }
      }
    }
    if (!rotated) {
      SvdResult out;
      out.s.resize(n);
      out.u = DenseMatrix(m, n);
      out.v = std::move(v);
      for (index_t j = 0; j < n; ++j) {
        auto wj = w.col(j);
        const double sigma = norm2(wj);
        out.s[j] = sigma;
        auto uj = out.u.col(j);
        if (sigma > 0.0) {
          for (index_t i = 0; i < m; ++i) uj[i] = wj[i] / sigma;
        }
        // sigma == 0: leave a zero U column; rank deficiency is visible to
        // callers through s[j] == 0.
      }
      return out;
    }
  }
  throw std::runtime_error("jacobi_svd: sweep limit exceeded");
}

}  // namespace

SvdResult jacobi_svd(const DenseMatrix& a) {
  SvdResult out;
  if (a.rows() == 0 || a.cols() == 0) return out;
  if (a.rows() >= a.cols()) {
    out = jacobi_tall(a);
  } else {
    out = jacobi_tall(a.transposed());
    std::swap(out.u, out.v);
  }
  sort_descending(out);
  normalize_signs(out);
  return out;
}

}  // namespace lsi::la
