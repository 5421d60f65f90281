#include "lsi/folding.hpp"

#include <cassert>

#include "lsi/retrieval.hpp"
#include "obs/trace.hpp"

namespace lsi::core {

void fold_in_documents(SemanticSpace& space, const la::CscMatrix& d) {
  assert(d.rows() == space.num_terms());
  LSI_OBS_SPAN(span, "foldin.documents");
  obs::count("foldin.documents_added", d.cols());
  const index_t old_docs = space.num_docs();
  la::DenseMatrix new_rows(d.cols(), space.k());
  // Equation 7 over each column's nonzeros only (project_sparse): O(nnz k)
  // instead of the O(m k) of projecting the densified column, and
  // bit-identical to project_query on it.
  la::Vector row(space.k());
  for (index_t j = 0; j < d.cols(); ++j) {
    project_sparse(space, d.col_rows(j), d.col_values(j), row);
    for (index_t i = 0; i < space.k(); ++i) new_rows(j, i) = row[i];
  }
  space.v.append_rows(new_rows);
  // Folding appends rows and leaves the existing V rows and sigma untouched,
  // so warm norm caches are extended with the p new norms instead of being
  // recomputed from scratch — O(p k) per fold instead of O(n k), which is
  // what keeps the serve-while-updating publish path (lsi/concurrent.hpp)
  // cheap. Extension is bit-identical to a full refill.
  space.extend_doc_norms(old_docs);
}

void fold_in_terms(SemanticSpace& space, const la::CscMatrix& t) {
  assert(t.cols() == space.num_docs());
  LSI_OBS_SPAN(span, "foldin.terms");
  obs::count("foldin.terms_added", t.rows());
  la::DenseMatrix new_rows(t.rows(), space.k());
  // Convert to CSR for O(nnz_q) access to each new term row; the Eq. 8
  // projection t V S^{-1} then costs O(nnz_q * k) per term instead of
  // O(n * k) for the densified row.
  const la::CsrMatrix rows = la::CsrMatrix::from_csc(t);
  for (index_t q = 0; q < t.rows(); ++q) {
    auto cols = rows.row_cols(q);
    auto vals = rows.row_values(q);
    for (index_t i = 0; i < space.k(); ++i) {
      double acc = 0.0;
      for (std::size_t p = 0; p < cols.size(); ++p) {
        acc += vals[p] * space.v(cols[p], i);
      }
      new_rows(q, i) =
          space.sigma[i] > 0.0 ? acc / space.sigma[i] : 0.0;
    }
  }
  la::DenseMatrix u = space.u;
  u.append_rows(new_rows);
  space.u = std::move(u);
}

void fold_in_documents(SemanticSpace& space, const la::DenseMatrix& d) {
  fold_in_documents(space, la::CscMatrix::from_dense(d));
}

void fold_in_terms(SemanticSpace& space, const la::DenseMatrix& t) {
  fold_in_terms(space, la::CscMatrix::from_dense(t));
}

}  // namespace lsi::core
