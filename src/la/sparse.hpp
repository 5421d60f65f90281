#pragma once
// Sparse matrices in the two formats LSI needs:
//   * CooBuilder   — incremental triplet assembly while parsing documents;
//   * CscMatrix    — compressed sparse column, the operational format;
// plus SparseVector, one column on its own: the form a query or an ingested
// document takes from the tokenizer to the Equation 6/7 projection.
//
// Term-document matrices store documents as columns, so CSC gives O(nnz_j)
// access to each document and a cache-friendly A*x; A^T*x traverses columns
// and is parallelized over columns since each output element is owned by
// exactly one column.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "la/dense.hpp"
#include "la/vector_ops.hpp"

namespace lsi::la {

/// A sparse vector: strictly ascending indices `rows` with the parallel
/// nonzero `values`, the layout of one CscMatrix column.
struct SparseVector {
  std::vector<index_t> rows;
  std::vector<double> values;

  std::size_t nnz() const noexcept { return rows.size(); }

  /// The nonzeros of a dense vector, in ascending order.
  static SparseVector from_dense(std::span<const double> x);

  /// Dense copy of length `size` (every row must be below it).
  Vector to_dense(index_t size) const;
};

/// y = A^T x for a sparse x given by its ascending `rows` and `values`:
/// y[i] = sum_p a(rows[p], i) * values[p], summed in ascending p. O(nnz
/// a.cols()), and bit-identical to multiply_transpose on the densified x:
/// the skipped products are exact zeros, which never change a sum. `y` has
/// length a.cols().
void multiply_transpose(const DenseMatrix& a, std::span<const index_t> rows,
                        std::span<const double> values, std::span<double> y);

/// Triplet accumulator. Duplicate (i, j) entries are summed on conversion.
class CooBuilder {
 public:
  CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {}

  void add(index_t i, index_t j, double v);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  std::size_t entries() const noexcept { return vals_.size(); }

  /// Sorts, merges duplicates, drops explicit zeros, and compresses.
  class CscMatrix to_csc() const;

 private:
  index_t rows_, cols_;
  std::vector<index_t> is_, js_;
  std::vector<double> vals_;
};

/// Immutable compressed-sparse-column matrix.
class CscMatrix {
 public:
  CscMatrix() = default;
  CscMatrix(index_t rows, index_t cols, std::vector<index_t> col_ptr,
            std::vector<index_t> row_idx, std::vector<double> values);

  static CscMatrix from_dense(const DenseMatrix& a, double drop_tol = 0.0);

  /// Stacks sparse vectors as the columns of a rows x cols.size() matrix.
  /// Each column is copied as is, so it must already be sorted, unique and
  /// free of explicit zeros (what CooBuilder::to_csc would produce).
  static CscMatrix from_columns(index_t rows,
                                std::span<const SparseVector> cols);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  /// Fraction of nonzero cells.
  double density() const noexcept;

  std::span<const index_t> col_ptr() const noexcept { return col_ptr_; }
  std::span<const index_t> row_idx() const noexcept { return row_idx_; }
  std::span<const double> values() const noexcept { return values_; }

  /// Row indices of column j.
  std::span<const index_t> col_rows(index_t j) const noexcept {
    return {row_idx_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
  }
  /// Values of column j (parallel to col_rows(j)).
  std::span<const double> col_values(index_t j) const noexcept {
    return {values_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
  }

  /// y = A * x (y sized rows()). Serial per call; callers batch columns.
  void apply(std::span<const double> x, std::span<double> y) const;

  /// y = A^T * x (y sized cols()). Parallel over columns.
  void apply_transpose(std::span<const double> x, std::span<double> y) const;

  /// Dense copy (small matrices / tests only).
  DenseMatrix to_dense() const;

  /// New matrix with the columns of `other` appended on the right.
  CscMatrix with_appended_cols(const CscMatrix& other) const;

  /// New matrix with the rows of `other` appended at the bottom.
  CscMatrix with_appended_rows(const CscMatrix& other) const;

  /// Entry lookup by binary search within the column: O(log nnz_j).
  double at(index_t i, index_t j) const;

  /// Returns a copy whose value array is transformed entrywise by
  /// new = f(i, j, old); zeros stay implicit (f never sees them).
  template <typename F>
  CscMatrix transform_values(F&& f) const {
    CscMatrix out = *this;
    for (index_t j = 0; j < cols_; ++j) {
      for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
        out.values_[p] = f(row_idx_[p], j, values_[p]);
      }
    }
    return out;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> col_ptr_;  ///< size cols+1
  std::vector<index_t> row_idx_;  ///< size nnz
  std::vector<double> values_;    ///< size nnz
};

/// Compressed-sparse-row matrix: the row-major dual of CscMatrix, giving
/// O(nnz_i) access to each *term* row (CSC owns the document columns).
/// Built from a CscMatrix; used wherever row gathers would otherwise
/// densify (e.g. folding in new term rows).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Transposes the compression of `a` (O(nnz)).
  static CsrMatrix from_csc(const CscMatrix& a);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  /// Column indices of row i (ascending).
  std::span<const index_t> row_cols(index_t i) const noexcept {
    return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  /// Values of row i (parallel to row_cols(i)).
  std::span<const double> row_values(index_t i) const noexcept {
    return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }

  /// y = A * x (parallel over rows; each y[i] is a gather).
  void apply(std::span<const double> x, std::span<double> y) const;

  /// y = A^T * x (serial scatter).
  void apply_transpose(std::span<const double> x, std::span<double> y) const;

  /// Dense copy (tests only).
  DenseMatrix to_dense() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_;  ///< size rows+1
  std::vector<index_t> col_idx_;  ///< size nnz
  std::vector<double> values_;    ///< size nnz
};

/// Abstract m x n linear operator: the interface the Lanczos driver works
/// against, so sparse, dense, and matrix-free operators all plug in.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;
  virtual index_t rows() const noexcept = 0;
  virtual index_t cols() const noexcept = 0;
  /// y = A x; y is pre-sized to rows().
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;
  /// y = A^T x; y is pre-sized to cols().
  virtual void apply_transpose(std::span<const double> x,
                               std::span<double> y) const = 0;
  /// Flops one apply()/apply_transpose() costs (2 per stored nonzero), for
  /// the observability layer's measured-flop accounting. 0 = unknown.
  virtual std::uint64_t apply_flops() const noexcept { return 0; }
};

/// LinearOperator view over a CscMatrix (non-owning).
class CscOperator final : public LinearOperator {
 public:
  explicit CscOperator(const CscMatrix& a) noexcept : a_(&a) {}
  index_t rows() const noexcept override { return a_->rows(); }
  index_t cols() const noexcept override { return a_->cols(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    a_->apply(x, y);
  }
  void apply_transpose(std::span<const double> x,
                       std::span<double> y) const override {
    a_->apply_transpose(x, y);
  }
  std::uint64_t apply_flops() const noexcept override {
    return 2 * static_cast<std::uint64_t>(a_->nnz());
  }

 private:
  const CscMatrix* a_;
};

/// LinearOperator view over a DenseMatrix (non-owning).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(const DenseMatrix& a) noexcept : a_(&a) {}
  index_t rows() const noexcept override { return a_->rows(); }
  index_t cols() const noexcept override { return a_->cols(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  void apply_transpose(std::span<const double> x,
                       std::span<double> y) const override;
  std::uint64_t apply_flops() const noexcept override {
    return 2 * static_cast<std::uint64_t>(a_->rows()) *
           static_cast<std::uint64_t>(a_->cols());
  }

 private:
  const DenseMatrix* a_;
};

}  // namespace lsi::la
