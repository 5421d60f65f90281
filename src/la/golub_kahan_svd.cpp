#include "la/golub_kahan_svd.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "la/householder.hpp"
#include "la/tridiag_eig.hpp"

namespace lsi::la {

namespace {

/// Rows [row0, m.rows()) of `m` times H on columns [h.first, ...).
void reflect_rows(const Reflector& h, DenseMatrix& m, index_t row0) {
  if (h.tau == 0.0) return;
  const std::size_t rows = m.rows() - row0;
  Vector w(rows, 0.0);
  for (std::size_t t = 0; t < h.v.size(); ++t) {
    const double* col = m.col(h.first + t).data() + row0;
    for (std::size_t i = 0; i < rows; ++i) w[i] += col[i] * h.v[t];
  }
  for (std::size_t t = 0; t < h.v.size(); ++t) {
    double* col = m.col(h.first + t).data() + row0;
    const double s = h.tau * h.v[t];
    for (std::size_t i = 0; i < rows; ++i) col[i] -= w[i] * s;
  }
}

/// The SVD of a matrix with rows >= cols, signs not yet normalized.
SvdResult tall_svd(DenseMatrix a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  assert(m >= n && n > 0);

  // A = Q B P^T: left reflector j clears column j below the diagonal, right
  // reflector j clears row j right of the superdiagonal.
  std::vector<Reflector> left(n), right(n > 2 ? n - 2 : 0);
  std::vector<double> diag(n), super(n - 1);
  for (index_t j = 0; j < n; ++j) {
    auto cj = a.col(j);
    diag[j] = make_reflector(j, Vector(cj.begin() + j, cj.end()), left[j]);
    for (index_t c = j + 1; c < n; ++c) reflect_col(left[j], a, c);
    if (j + 1 >= n) continue;
    Vector row(n - j - 1);
    for (index_t c = j + 1; c < n; ++c) row[c - j - 1] = a(j, c);
    if (j + 2 < n) {
      super[j] = make_reflector(j + 1, std::move(row), right[j]);
      reflect_rows(right[j], a, j + 1);
    } else {
      super[j] = row[0];
    }
  }

  // B = U_B S V_B^T, so A = (Q U_B) S (P V_B)^T.
  SvdResult b = bidiagonal_svd(diag, super);
  SvdResult out;
  out.s = std::move(b.s);
  out.u = DenseMatrix(m, n);
  for (index_t c = 0; c < n; ++c) {
    std::copy_n(b.u.col(c).data(), n, out.u.col(c).data());
  }
  for (index_t j = n; j-- > 0;) {
    for (index_t c = 0; c < n; ++c) reflect_col(left[j], out.u, c);
  }
  out.v = std::move(b.v);
  for (index_t j = right.size(); j-- > 0;) {
    for (index_t c = 0; c < n; ++c) reflect_col(right[j], out.v, c);
  }
  return out;
}

}  // namespace

SvdResult golub_kahan_svd(const DenseMatrix& a) {
  SvdResult out;
  if (a.rows() == 0 || a.cols() == 0) return out;
  if (a.rows() >= a.cols()) {
    out = tall_svd(a);
  } else {
    out = tall_svd(a.transposed());
    std::swap(out.u, out.v);
  }
  // bidiagonal_svd sorted the triplets; the back-transformation keeps the
  // order but moves the largest entry of each left vector.
  normalize_signs(out);
  return out;
}

}  // namespace lsi::la
