#include "la/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/thread_pool.hpp"

namespace lsi::la {

SparseVector SparseVector::from_dense(std::span<const double> x) {
  SparseVector out;
  for (index_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) continue;
    out.rows.push_back(i);
    out.values.push_back(x[i]);
  }
  return out;
}

Vector SparseVector::to_dense(index_t size) const {
  Vector out(size, 0.0);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    assert(rows[p] < size);
    out[rows[p]] = values[p];
  }
  return out;
}

void multiply_transpose(const DenseMatrix& a, std::span<const index_t> rows,
                        std::span<const double> values, std::span<double> y) {
  assert(rows.size() == values.size() && y.size() == a.cols());
  assert(rows.empty() || rows.back() < a.rows());
  for (index_t i = 0; i < a.cols(); ++i) {
    const auto a_i = a.col(i);
    double acc = 0.0;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      acc += a_i[rows[p]] * values[p];
    }
    y[i] = acc;
  }
}

void CooBuilder::add(index_t i, index_t j, double v) {
  assert(i < rows_ && j < cols_);
  is_.push_back(i);
  js_.push_back(j);
  vals_.push_back(v);
}

CscMatrix CooBuilder::to_csc() const {
  // Sort triplets by (col, row) via an index permutation.
  std::vector<std::size_t> order(vals_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (js_[a] != js_[b]) return js_[a] < js_[b];
    return is_[a] < is_[b];
  });

  std::vector<index_t> col_ptr(cols_ + 1, 0);
  std::vector<index_t> row_idx;
  std::vector<double> values;
  row_idx.reserve(vals_.size());
  values.reserve(vals_.size());

  for (std::size_t p = 0; p < order.size();) {
    const std::size_t a = order[p];
    double sum = vals_[a];
    std::size_t q = p + 1;
    while (q < order.size() && js_[order[q]] == js_[a] &&
           is_[order[q]] == is_[a]) {
      sum += vals_[order[q]];
      ++q;
    }
    if (sum != 0.0) {
      row_idx.push_back(is_[a]);
      values.push_back(sum);
      ++col_ptr[js_[a] + 1];
    }
    p = q;
  }
  for (index_t j = 0; j < cols_; ++j) col_ptr[j + 1] += col_ptr[j];
  return CscMatrix(rows_, cols_, std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

CscMatrix::CscMatrix(index_t rows, index_t cols, std::vector<index_t> col_ptr,
                     std::vector<index_t> row_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)),
      values_(std::move(values)) {
  assert(col_ptr_.size() == cols_ + 1);
  assert(row_idx_.size() == values_.size());
  assert(col_ptr_.back() == values_.size());
}

CscMatrix CscMatrix::from_dense(const DenseMatrix& a, double drop_tol) {
  CooBuilder b(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double v = a(i, j);
      if (std::abs(v) > drop_tol) b.add(i, j, v);
    }
  }
  return b.to_csc();
}

CscMatrix CscMatrix::from_columns(index_t rows,
                                  std::span<const SparseVector> cols) {
  std::vector<index_t> col_ptr(cols.size() + 1, 0);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    col_ptr[j + 1] = col_ptr[j] + cols[j].nnz();
  }
  std::vector<index_t> row_idx;
  std::vector<double> values;
  row_idx.reserve(col_ptr.back());
  values.reserve(col_ptr.back());
  for (const SparseVector& c : cols) {
    assert(c.rows.size() == c.values.size());
    assert(std::is_sorted(c.rows.begin(), c.rows.end()));
    assert(c.rows.empty() || c.rows.back() < rows);
    row_idx.insert(row_idx.end(), c.rows.begin(), c.rows.end());
    values.insert(values.end(), c.values.begin(), c.values.end());
  }
  return CscMatrix(rows, cols.size(), std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

double CscMatrix::density() const noexcept {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void CscMatrix::apply(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == cols_ && y.size() == rows_);
  set_zero(y);
  for (index_t j = 0; j < cols_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
      y[row_idx_[p]] += values_[p] * xj;
    }
  }
}

void CscMatrix::apply_transpose(std::span<const double> x,
                                std::span<double> y) const {
  assert(x.size() == rows_ && y.size() == cols_);
  // Each y[j] is a gather over column j: embarrassingly parallel.
  util::parallel_for_chunks(
      0, cols_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          double acc = 0.0;
          for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
            acc += values_[p] * x[row_idx_[p]];
          }
          y[j] = acc;
        }
      },
      /*grain=*/256);
}

DenseMatrix CscMatrix::to_dense() const {
  DenseMatrix out(rows_, cols_);
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
      out(row_idx_[p], j) = values_[p];
    }
  }
  return out;
}

CscMatrix CscMatrix::with_appended_cols(const CscMatrix& other) const {
  assert(rows_ == other.rows_);
  std::vector<index_t> col_ptr = col_ptr_;
  col_ptr.reserve(cols_ + other.cols_ + 1);
  const index_t base = col_ptr_.back();
  for (index_t j = 1; j <= other.cols_; ++j) {
    col_ptr.push_back(base + other.col_ptr_[j]);
  }
  std::vector<index_t> row_idx = row_idx_;
  row_idx.insert(row_idx.end(), other.row_idx_.begin(), other.row_idx_.end());
  std::vector<double> values = values_;
  values.insert(values.end(), other.values_.begin(), other.values_.end());
  return CscMatrix(rows_, cols_ + other.cols_, std::move(col_ptr),
                   std::move(row_idx), std::move(values));
}

CscMatrix CscMatrix::with_appended_rows(const CscMatrix& other) const {
  assert(cols_ == other.cols_);
  std::vector<index_t> col_ptr(cols_ + 1, 0);
  std::vector<index_t> row_idx;
  std::vector<double> values;
  row_idx.reserve(nnz() + other.nnz());
  values.reserve(nnz() + other.nnz());
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
      row_idx.push_back(row_idx_[p]);
      values.push_back(values_[p]);
    }
    for (index_t p = other.col_ptr_[j]; p < other.col_ptr_[j + 1]; ++p) {
      row_idx.push_back(rows_ + other.row_idx_[p]);
      values.push_back(other.values_[p]);
    }
    col_ptr[j + 1] = static_cast<index_t>(row_idx.size());
  }
  return CscMatrix(rows_ + other.rows_, cols_, std::move(col_ptr),
                   std::move(row_idx), std::move(values));
}

double CscMatrix::at(index_t i, index_t j) const {
  assert(i < rows_ && j < cols_);
  const auto rows_span = col_rows(j);
  const auto it = std::lower_bound(rows_span.begin(), rows_span.end(), i);
  if (it == rows_span.end() || *it != i) return 0.0;
  return values_[col_ptr_[j] +
                 static_cast<index_t>(it - rows_span.begin())];
}

CsrMatrix CsrMatrix::from_csc(const CscMatrix& a) {
  CsrMatrix out;
  out.rows_ = a.rows();
  out.cols_ = a.cols();
  out.row_ptr_.assign(out.rows_ + 1, 0);
  out.col_idx_.resize(a.nnz());
  out.values_.resize(a.nnz());

  // Count entries per row, prefix-sum, then scatter. Scanning columns in
  // ascending order yields ascending column indices within each row.
  for (index_t r : a.row_idx()) ++out.row_ptr_[r + 1];
  for (index_t i = 0; i < out.rows_; ++i) {
    out.row_ptr_[i + 1] += out.row_ptr_[i];
  }
  std::vector<index_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (index_t j = 0; j < a.cols(); ++j) {
    auto rows = a.col_rows(j);
    auto vals = a.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const index_t slot = cursor[rows[p]]++;
      out.col_idx_[slot] = j;
      out.values_[slot] = vals[p];
    }
  }
  return out;
}

void CsrMatrix::apply(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == cols_ && y.size() == rows_);
  util::parallel_for_chunks(
      0, rows_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          double acc = 0.0;
          for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
            acc += values_[p] * x[col_idx_[p]];
          }
          y[i] = acc;
        }
      },
      /*grain=*/256);
}

void CsrMatrix::apply_transpose(std::span<const double> x,
                                std::span<double> y) const {
  assert(x.size() == rows_ && y.size() == cols_);
  set_zero(y);
  for (index_t i = 0; i < rows_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      y[col_idx_[p]] += values_[p] * xi;
    }
  }
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix out(rows_, cols_);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      out(i, col_idx_[p]) = values_[p];
    }
  }
  return out;
}

void DenseOperator::apply(std::span<const double> x,
                          std::span<double> y) const {
  assert(x.size() == a_->cols() && y.size() == a_->rows());
  set_zero(y);
  for (index_t j = 0; j < a_->cols(); ++j) {
    if (x[j] == 0.0) continue;
    axpy(x[j], a_->col(j), y);
  }
}

void DenseOperator::apply_transpose(std::span<const double> x,
                                    std::span<double> y) const {
  assert(x.size() == a_->rows() && y.size() == a_->cols());
  for (index_t j = 0; j < a_->cols(); ++j) y[j] = dot(a_->col(j), x);
}

}  // namespace lsi::la
