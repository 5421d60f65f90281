#pragma once
// The one Householder reflector of lsi_la (internal: qr.cpp and
// golub_kahan_svd.cpp), in LAPACK dlarfg form.

#include <cmath>
#include <span>
#include <utility>

#include "la/dense.hpp"

namespace lsi::la {

/// H = I - tau v v^T acting on entries [first, first + v.size()) of a
/// vector, with v[0] = 1; tau = 0 is the identity.
struct Reflector {
  index_t first = 0;
  Vector v;
  double tau = 0.0;
};

/// The reflector that takes x to (beta, 0, ..., 0), beta = -sign(x0) ||x||
/// (the sign that avoids cancellation in x0 - beta), tau = (beta - x0) /
/// beta. When x[1..] is already zero, H is the identity and beta = x0, so
/// entries that are zero stay exactly zero. Returns beta.
inline double make_reflector(index_t first, Vector x, Reflector& h) {
  h.first = first;
  h.v.clear();
  h.tau = 0.0;
  if (x.empty()) return 0.0;
  const double alpha = x[0];
  const double tail = norm2(std::span<const double>(x).subspan(1));
  if (tail == 0.0) return alpha;
  const double norm = std::hypot(alpha, tail);
  const double beta = alpha >= 0.0 ? -norm : norm;
  h.tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  x[0] = 1.0;
  for (std::size_t i = 1; i < x.size(); ++i) x[i] *= inv;
  h.v = std::move(x);
  return beta;
}

/// Column `c` of `m` (rows from h.first) <- H times it.
inline void reflect_col(const Reflector& h, DenseMatrix& m, index_t c) {
  if (h.tau == 0.0) return;
  double* col = m.col(c).data() + h.first;
  const std::size_t len = h.v.size();
  double w = 0.0;
  for (std::size_t i = 0; i < len; ++i) w += h.v[i] * col[i];
  w *= h.tau;
  for (std::size_t i = 0; i < len; ++i) col[i] -= w * h.v[i];
}

}  // namespace lsi::la
