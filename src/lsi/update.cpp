#include "lsi/update.hpp"

#include <cassert>

#include "la/jacobi_svd.hpp"
#include "la/qr.hpp"
#include "obs/trace.hpp"

namespace lsi::core {

namespace {

/// diag(sigma) as a dense k x k block.
la::DenseMatrix diag_of(const std::vector<double>& sigma) {
  la::DenseMatrix d(sigma.size(), sigma.size());
  for (index_t i = 0; i < sigma.size(); ++i) d(i, i) = sigma[i];
  return d;
}

/// [a | b] as a fresh dense matrix.
la::DenseMatrix hstack(const la::DenseMatrix& a, const la::DenseMatrix& b) {
  la::DenseMatrix out = a;
  out.append_cols(b);
  return out;
}

}  // namespace

la::DenseMatrix update_documents(SemanticSpace& space,
                                 const la::CscMatrix& d) {
  assert(d.rows() == space.num_terms());
  const index_t k = space.k();
  const index_t p = d.cols();
  const index_t n = space.num_docs();
  if (p == 0) return la::DenseMatrix::identity(k);
  LSI_OBS_SPAN(span, "update.documents");
  obs::count("update.documents_added", p);

  // F = (S_k | U_k^T D), a k x (k+p) dense matrix; U_k^T D over each
  // column's nonzeros, O(nnz(D) k).
  la::DenseMatrix utd(k, p);
  for (index_t j = 0; j < p; ++j) {
    la::multiply_transpose(space.u, d.col_rows(j), d.col_values(j),
                           utd.col(j));
  }
  la::DenseMatrix f = diag_of(space.sigma);
  f.append_cols(utd);

  la::SvdResult fs = la::jacobi_svd(f);  // k x (k+p): rank k
  fs.truncate(k);

  // U_B = U_k U_F ;  V_B = [[V_k, 0], [0, I_p]] V_F.
  space.u = la::multiply(space.u, fs.u);
  // V_F is (k+p) x k; split into top k rows (rotating old documents) and
  // bottom p rows (the new documents' coordinates).
  la::DenseMatrix vf_top(k, k), vf_bottom(p, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < k; ++i) vf_top(i, j) = fs.v(i, j);
    for (index_t i = 0; i < p; ++i) vf_bottom(i, j) = fs.v(k + i, j);
  }
  la::DenseMatrix new_v(n + p, k);
  la::DenseMatrix rotated = la::multiply(space.v, vf_top);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) new_v(i, j) = rotated(i, j);
    for (index_t i = 0; i < p; ++i) new_v(n + i, j) = vf_bottom(i, j);
  }
  space.v = std::move(new_v);
  space.sigma = std::move(fs.s);
  space.invalidate_doc_norms();
  return std::move(fs.u);
}

void update_terms(SemanticSpace& space, const la::CscMatrix& t) {
  assert(t.cols() == space.num_docs());
  const index_t k = space.k();
  const index_t q = t.rows();
  const index_t m = space.num_terms();
  if (q == 0) return;
  LSI_OBS_SPAN(span, "update.terms");
  obs::count("update.terms_added", q);

  // H = (S_k ; T V_k), a (k+q) x k dense matrix.
  la::DenseMatrix tv(q, k);
  {
    // T V_k: accumulate column-wise over T's CSC storage.
    for (index_t j = 0; j < t.cols(); ++j) {
      auto rows = t.col_rows(j);
      auto vals = t.col_values(j);
      for (std::size_t pos = 0; pos < rows.size(); ++pos) {
        const index_t row = rows[pos];
        const double val = vals[pos];
        for (index_t c = 0; c < k; ++c) tv(row, c) += val * space.v(j, c);
      }
    }
  }
  la::DenseMatrix h = diag_of(space.sigma);
  h.append_rows(tv);

  la::SvdResult hs = la::jacobi_svd(h);  // (k+q) x k: rank k
  hs.truncate(k);

  // U_C = [[U_k, 0], [0, I_q]] U_H ;  V_C = V_k V_H.
  la::DenseMatrix uh_top(k, k), uh_bottom(q, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < k; ++i) uh_top(i, j) = hs.u(i, j);
    for (index_t i = 0; i < q; ++i) uh_bottom(i, j) = hs.u(k + i, j);
  }
  la::DenseMatrix new_u(m + q, k);
  la::DenseMatrix rotated = la::multiply(space.u, uh_top);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < m; ++i) new_u(i, j) = rotated(i, j);
    for (index_t i = 0; i < q; ++i) new_u(m + i, j) = uh_bottom(i, j);
  }
  space.u = std::move(new_u);
  space.v = la::multiply(space.v, hs.v);
  space.sigma = std::move(hs.s);
  space.invalidate_doc_norms();
}

void update_weights(SemanticSpace& space, const la::DenseMatrix& y,
                    const la::DenseMatrix& z) {
  assert(y.rows() == space.num_terms());
  assert(z.rows() == space.num_docs());
  assert(y.cols() == z.cols());
  const index_t k = space.k();

  // Q = S_k + (U_k^T Y)(V_k^T Z)^T, a k x k dense matrix.
  la::DenseMatrix uty = la::multiply_at_b(space.u, y);  // k x j
  la::DenseMatrix vtz = la::multiply_at_b(space.v, z);  // k x j
  la::DenseMatrix qm = la::multiply_a_bt(uty, vtz);     // k x k
  for (index_t i = 0; i < k; ++i) qm(i, i) += space.sigma[i];

  la::SvdResult qs = la::jacobi_svd(qm);
  qs.truncate(k);

  space.u = la::multiply(space.u, qs.u);
  space.v = la::multiply(space.v, qs.v);
  space.sigma = std::move(qs.s);
  space.invalidate_doc_norms();
}

la::DenseMatrix update_documents(SemanticSpace& space,
                                 const la::DenseMatrix& d) {
  return update_documents(space, la::CscMatrix::from_dense(d));
}

void update_terms(SemanticSpace& space, const la::DenseMatrix& t) {
  update_terms(space, la::CscMatrix::from_dense(t));
}

la::DenseMatrix update_documents_exact(SemanticSpace& space,
                                       const la::CscMatrix& d) {
  assert(d.rows() == space.num_terms());
  const index_t k = space.k();
  const index_t p = d.cols();
  const index_t n = space.num_docs();
  if (p == 0) return la::DenseMatrix::identity(k);

  // Split D into its in-subspace part U (U^T D) and residual R = D - U U^T D.
  const la::DenseMatrix dd = d.to_dense();
  const la::DenseMatrix utd = la::multiply_at_b(space.u, dd);  // k x p
  la::DenseMatrix resid = dd;
  resid.add_scaled(la::multiply(space.u, utd), -1.0);          // m x p
  const la::QrResult rq = la::qr_decompose(resid);             // Q: m x p

  // K = [[Sigma, U^T D], [0, R_r]], (k+p) x (k+p); then
  //   (A_k | D) = [U  Q] K [[V, 0], [0, I_p]]^T   exactly.
  la::DenseMatrix k_top = hstack(diag_of(space.sigma), utd);   // k x (k+p)
  la::DenseMatrix k_bottom(p, k);                              // zeros
  k_bottom.append_cols(rq.r);                                  // p x (k+p)
  la::DenseMatrix kmat = k_top;
  kmat.append_rows(k_bottom);

  la::SvdResult ks = la::jacobi_svd(kmat);
  ks.truncate(k);

  // U' = [U Q] U_K.
  la::DenseMatrix uq = hstack(space.u, rq.q);                  // m x (k+p)
  space.u = la::multiply(uq, ks.u);
  // V' = [[V, 0], [0, I_p]] V_K.
  la::DenseMatrix new_v(n + p, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < k; ++l) acc += space.v(i, l) * ks.v(l, j);
      new_v(i, j) = acc;
    }
    for (index_t i = 0; i < p; ++i) new_v(n + i, j) = ks.v(k + i, j);
  }
  space.v = std::move(new_v);
  space.sigma = std::move(ks.s);
  space.invalidate_doc_norms();
  la::DenseMatrix map(k, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < k; ++i) map(i, j) = ks.u(i, j);
  }
  return map;
}

void update_terms_exact(SemanticSpace& space, const la::CscMatrix& t) {
  assert(t.cols() == space.num_docs());
  const index_t k = space.k();
  const index_t q = t.rows();
  const index_t m = space.num_terms();
  if (q == 0) return;

  // T = (T V) V^T + residual; QR the residual's transpose (n x q).
  const la::DenseMatrix td = t.to_dense();               // q x n
  const la::DenseMatrix tv = la::multiply(td, space.v);  // T V, q x k
  la::DenseMatrix resid_t = td.transposed();                    // n x q
  resid_t.add_scaled(la::multiply_a_bt(space.v, tv), -1.0);     // n x q
  const la::QrResult rq = la::qr_decompose(resid_t);            // Q: n x q

  // K = [[Sigma, 0], [T V, R_r^T]], (k+q) x (k+q); then
  //   (A_k ; T) = [[U, 0], [0, I_q]] K [V  Q]^T  exactly.
  la::DenseMatrix k_top = hstack(diag_of(space.sigma),
                                 la::DenseMatrix(k, q));
  la::DenseMatrix k_bottom = hstack(tv, rq.r.transposed());     // q x (k+q)
  la::DenseMatrix kmat = k_top;
  kmat.append_rows(k_bottom);

  la::SvdResult ks = la::jacobi_svd(kmat);
  ks.truncate(k);

  // U' = [[U, 0], [0, I_q]] U_K.
  la::DenseMatrix new_u(m + q, k);
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < k; ++l) acc += space.u(i, l) * ks.u(l, j);
      new_u(i, j) = acc;
    }
    for (index_t i = 0; i < q; ++i) new_u(m + i, j) = ks.u(k + i, j);
  }
  space.u = std::move(new_u);
  // V' = [V Q] V_K.
  space.v = la::multiply(hstack(space.v, rq.q), ks.v);
  space.sigma = std::move(ks.s);
  space.invalidate_doc_norms();
}

void update_weights_exact(SemanticSpace& space, const la::DenseMatrix& y,
                          const la::DenseMatrix& z) {
  assert(y.rows() == space.num_terms());
  assert(z.rows() == space.num_docs());
  assert(y.cols() == z.cols());
  const index_t k = space.k();
  const index_t j = y.cols();
  if (j == 0) return;

  // Residual bases for Y and Z outside the retained subspaces.
  const la::DenseMatrix uty = la::multiply_at_b(space.u, y);  // k x j
  la::DenseMatrix ry = y;
  ry.add_scaled(la::multiply(space.u, uty), -1.0);
  const la::QrResult qy = la::qr_decompose(ry);               // Q: m x j

  const la::DenseMatrix vtz = la::multiply_at_b(space.v, z);  // k x j
  la::DenseMatrix rz = z;
  rz.add_scaled(la::multiply(space.v, vtz), -1.0);
  const la::QrResult qz = la::qr_decompose(rz);               // Q: n x j

  // K = [[Sigma, 0], [0, 0]] + [U^T Y; R_y] [V^T Z; R_z]^T, (k+j) square.
  la::DenseMatrix ycoef = uty;       // (k+j) x j
  ycoef.append_rows(qy.r);
  la::DenseMatrix zcoef = vtz;       // (k+j) x j
  zcoef.append_rows(qz.r);
  la::DenseMatrix kmat = la::multiply_a_bt(ycoef, zcoef);
  for (index_t i = 0; i < k; ++i) kmat(i, i) += space.sigma[i];

  la::SvdResult ks = la::jacobi_svd(kmat);
  ks.truncate(k);

  space.u = la::multiply(hstack(space.u, qy.q), ks.u);
  space.v = la::multiply(hstack(space.v, qz.q), ks.v);
  space.sigma = std::move(ks.s);
  space.invalidate_doc_norms();
}

}  // namespace lsi::core
