#include "lsi/update.hpp"

#include <cassert>
#include <utility>

#include "la/golub_kahan_svd.hpp"
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

/// W's first `k` rows and the rest, as two dense matrices.
std::pair<la::DenseMatrix, la::DenseMatrix> split_rows(const la::DenseMatrix& w,
                                                       index_t k) {
  const index_t rest = w.rows() - k;
  la::DenseMatrix top(k, w.cols()), bottom(rest, w.cols());
  for (index_t j = 0; j < w.cols(); ++j) {
    for (index_t i = 0; i < k; ++i) top(i, j) = w(i, j);
    for (index_t i = 0; i < rest; ++i) bottom(i, j) = w(k + i, j);
  }
  return {std::move(top), std::move(bottom)};
}

/// [[V_k, 0], [0, I_p]] W for a (k+p) x k W: the k old columns' rows rotate
/// by W's top k rows, and the p new documents take W's bottom rows.
la::BlockedMatrix rotate_and_append(const la::BlockedMatrix& v,
                                    const la::DenseMatrix& w) {
  auto [top, bottom] = split_rows(w, v.cols());
  la::BlockedMatrix out = v.multiply(top);
  out.append_rows(bottom);
  return out;
}

/// [[U_k, 0], [0, I_q]] W for a (k+q) x k W: the same step for the dense U,
/// whose m old rows rotate and whose q new terms take W's bottom rows.
la::DenseMatrix rotate_and_append(const la::DenseMatrix& u,
                                  const la::DenseMatrix& w) {
  auto [top, bottom] = split_rows(w, u.cols());
  la::DenseMatrix out = la::multiply(u, top);
  out.append_rows(bottom);
  return out;
}

}  // namespace

la::DenseMatrix update_documents(SemanticSpace& space,
                                 const la::CscMatrix& d) {
  assert(d.rows() == space.num_terms());
  const index_t k = space.k();
  const index_t p = d.cols();
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

  la::SvdResult fs;
  {
    LSI_OBS_SPAN(svd_span, "update.svd");
    fs = la::golub_kahan_svd(f);  // k x (k+p): rank k
    fs.truncate(k);
  }

  // U_B = U_k U_F ;  V_B = [[V_k, 0], [0, I_p]] V_F.
  {
    LSI_OBS_SPAN(rotate_span, "update.rotate_u");
    space.u = la::multiply(space.u, fs.u);
  }
  {
    LSI_OBS_SPAN(rotate_span, "update.rotate_v");
    space.v = rotate_and_append(space.v, fs.v);
  }
  space.sigma = std::move(fs.s);
  space.invalidate_doc_norms();
  return std::move(fs.u);
}

void update_terms(SemanticSpace& space, const la::CscMatrix& t) {
  assert(t.cols() == space.num_docs());
  const index_t k = space.k();
  const index_t q = t.rows();
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

  la::SvdResult hs = la::golub_kahan_svd(h);  // (k+q) x k: rank k
  hs.truncate(k);

  // U_C = [[U_k, 0], [0, I_q]] U_H ;  V_C = V_k V_H.
  space.u = rotate_and_append(space.u, hs.u);
  space.v = la::multiply(space.v.to_dense(), hs.v);
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
  const la::DenseMatrix v = space.v.to_dense();         // n x k
  la::DenseMatrix uty = la::multiply_at_b(space.u, y);  // k x j
  la::DenseMatrix vtz = la::multiply_at_b(v, z);        // k x j
  la::DenseMatrix qm = la::multiply_a_bt(uty, vtz);     // k x k
  for (index_t i = 0; i < k; ++i) qm(i, i) += space.sigma[i];

  la::SvdResult qs = la::golub_kahan_svd(qm);
  qs.truncate(k);

  space.u = la::multiply(space.u, qs.u);
  space.v = la::multiply(v, qs.v);
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

  la::SvdResult ks = la::golub_kahan_svd(kmat);
  ks.truncate(k);

  // U' = [U Q] U_K.
  la::DenseMatrix uq = hstack(space.u, rq.q);                  // m x (k+p)
  space.u = la::multiply(uq, ks.u);
  // V' = [[V, 0], [0, I_p]] V_K.
  space.v = rotate_and_append(space.v, ks.v);
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
  if (q == 0) return;

  // T = (T V) V^T + residual; QR the residual's transpose (n x q).
  const la::DenseMatrix td = t.to_dense();               // q x n
  const la::DenseMatrix v = space.v.to_dense();          // n x k
  const la::DenseMatrix tv = la::multiply(td, v);        // T V, q x k
  la::DenseMatrix resid_t = td.transposed();                    // n x q
  resid_t.add_scaled(la::multiply_a_bt(v, tv), -1.0);           // n x q
  const la::QrResult rq = la::qr_decompose(resid_t);            // Q: n x q

  // K = [[Sigma, 0], [T V, R_r^T]], (k+q) x (k+q); then
  //   (A_k ; T) = [[U, 0], [0, I_q]] K [V  Q]^T  exactly.
  la::DenseMatrix k_top = hstack(diag_of(space.sigma),
                                 la::DenseMatrix(k, q));
  la::DenseMatrix k_bottom = hstack(tv, rq.r.transposed());     // q x (k+q)
  la::DenseMatrix kmat = k_top;
  kmat.append_rows(k_bottom);

  la::SvdResult ks = la::golub_kahan_svd(kmat);
  ks.truncate(k);

  // U' = [[U, 0], [0, I_q]] U_K.
  space.u = rotate_and_append(space.u, ks.u);
  // V' = [V Q] V_K.
  space.v = la::multiply(hstack(v, rq.q), ks.v);
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

  const la::DenseMatrix v = space.v.to_dense();               // n x k
  const la::DenseMatrix vtz = la::multiply_at_b(v, z);        // k x j
  la::DenseMatrix rz = z;
  rz.add_scaled(la::multiply(v, vtz), -1.0);
  const la::QrResult qz = la::qr_decompose(rz);               // Q: n x j

  // K = [[Sigma, 0], [0, 0]] + [U^T Y; R_y] [V^T Z; R_z]^T, (k+j) square.
  la::DenseMatrix ycoef = uty;       // (k+j) x j
  ycoef.append_rows(qy.r);
  la::DenseMatrix zcoef = vtz;       // (k+j) x j
  zcoef.append_rows(qz.r);
  la::DenseMatrix kmat = la::multiply_a_bt(ycoef, zcoef);
  for (index_t i = 0; i < k; ++i) kmat(i, i) += space.sigma[i];

  la::SvdResult ks = la::golub_kahan_svd(kmat);
  ks.truncate(k);

  space.u = la::multiply(hstack(space.u, qy.q), ks.u);
  space.v = la::multiply(hstack(v, qz.q), ks.v);
  space.sigma = std::move(ks.s);
  space.invalidate_doc_norms();
}

}  // namespace lsi::core
