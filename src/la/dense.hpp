#pragma once
// Column-major dense matrices and the handful of BLAS-3 style products the
// LSI pipeline needs. Column-major layout is chosen because LSI manipulates
// matrices column-wise throughout: singular vectors are columns, documents
// are columns, and folding-in appends columns.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "la/vector_ops.hpp"
#include "util/aligned.hpp"

namespace lsi::la {

using index_t = std::size_t;

/// Dense column-major matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// rows x cols matrix, zero-initialized.
  DenseMatrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from row-major initializer data (convenient for tests/datasets).
  static DenseMatrix from_rows(
      const std::vector<std::vector<double>>& rows);

  /// n x n identity.
  static DenseMatrix identity(index_t n);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(index_t i, index_t j) noexcept {
    return data_[j * rows_ + i];
  }
  double operator()(index_t i, index_t j) const noexcept {
    return data_[j * rows_ + i];
  }

  /// Contiguous view of column j.
  std::span<double> col(index_t j) noexcept {
    return {data_.data() + j * rows_, rows_};
  }
  std::span<const double> col(index_t j) const noexcept {
    return {data_.data() + j * rows_, rows_};
  }

  /// Copy of row i (rows are strided in column-major storage).
  Vector row(index_t i) const;

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// First `k` columns as a new matrix.
  DenseMatrix first_cols(index_t k) const;

  /// Transposed copy.
  DenseMatrix transposed() const;

  /// Appends the columns of `other` (same row count) to the right.
  void append_cols(const DenseMatrix& other);

  /// Appends the rows of `other` (same column count) at the bottom.
  void append_rows(const DenseMatrix& other);

  /// Frobenius norm.
  double frobenius_norm() const noexcept;

  /// Largest absolute entry.
  double max_abs() const noexcept;

  /// this += alpha * other (same shape).
  void add_scaled(const DenseMatrix& other, double alpha);

  /// Scales every entry.
  void scale_all(double alpha) noexcept;

  bool same_shape(const DenseMatrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  /// 64-byte-aligned, 64-byte-padded storage (util/aligned.hpp): the SIMD
  /// sweeps' loadu instructions hit aligned addresses whenever the row count
  /// cooperates, at zero cost to any caller — data() still returns double*.
  util::aligned_vector<double> data_;
};

/// C = A * B on the calling thread, through the dispatched matmul kernel:
/// entry (i, j) adds a(i, l) * b(l, j) for l ascending, so the bits are the
/// same under every kernel.
DenseMatrix multiply(const DenseMatrix& a, const DenseMatrix& b);

/// C = A^T * B without forming A^T.
DenseMatrix multiply_at_b(const DenseMatrix& a, const DenseMatrix& b);

/// C = A * B^T without forming B^T.
DenseMatrix multiply_a_bt(const DenseMatrix& a, const DenseMatrix& b);

/// y = A * x.
Vector multiply(const DenseMatrix& a, std::span<const double> x);

/// y = A^T * x.
Vector multiply_transpose(const DenseMatrix& a, std::span<const double> x);

/// A * diag(d): scales column j by d[j]. Requires d.size() == a.cols().
DenseMatrix scale_cols(const DenseMatrix& a, std::span<const double> d);

/// diag(d) * A: scales row i by d[i]. Requires d.size() == a.rows().
DenseMatrix scale_rows(const DenseMatrix& a, std::span<const double> d);

/// max |A - B| over entries. Shapes must match.
double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);

/// ||Q^T Q - I||_max: cheap orthonormality check used in tests.
double orthonormality_error(const DenseMatrix& q);

/// Human-readable dump (rows x cols with fixed precision), for debugging and
/// the figure benches.
std::string to_string(const DenseMatrix& a, int precision = 4);

}  // namespace lsi::la
