#include "la/qr.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/householder.hpp"

namespace lsi::la {

QrResult qr_decompose(const DenseMatrix& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t t = std::min(m, n);

  // Reflector k clears column k below the diagonal; R is what is left.
  DenseMatrix work = a;
  std::vector<Reflector> reflectors(t);
  QrResult out;
  out.r = DenseMatrix(t, n);
  for (index_t k = 0; k < t; ++k) {
    auto ck = work.col(k);
    out.r(k, k) =
        make_reflector(k, Vector(ck.begin() + k, ck.end()), reflectors[k]);
    for (index_t j = k + 1; j < n; ++j) {
      reflect_col(reflectors[k], work, j);
      out.r(k, j) = work(k, j);
    }
  }

  // Thin Q: the reflectors applied in reverse to the first t identity
  // columns (columns before kk are still e_j on reflector kk's rows).
  out.q = DenseMatrix(m, t);
  for (index_t j = 0; j < t; ++j) out.q(j, j) = 1.0;
  for (index_t kk = t; kk-- > 0;) {
    for (index_t j = kk; j < t; ++j) reflect_col(reflectors[kk], out.q, j);
  }
  return out;
}

DenseMatrix orthonormal_columns(const DenseMatrix& a, double tol) {
  QrResult f = qr_decompose(a);
  double rmax = 0.0;
  const index_t t = std::min(a.rows(), a.cols());
  for (index_t i = 0; i < t; ++i) rmax = std::max(rmax, std::fabs(f.r(i, i)));
  DenseMatrix q = std::move(f.q);
  for (index_t i = 0; i < t; ++i) {
    if (std::fabs(f.r(i, i)) <= tol * rmax) {
      set_zero(q.col(i));
    }
  }
  return q;
}

}  // namespace lsi::la
