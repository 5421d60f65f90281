#pragma once
// The document matrix V (n x k) as immutable, shared 512-row blocks
// (util/row_blocks.hpp). Successive snapshots of a growing space share every
// block a fold-in did not touch, so a publish costs what it appends, not
// O(n k). Inside a block the layout is column-major with leading dimension
// util::kBlockStride: column c of block b is block_rows(b) contiguous
// doubles starting at block(b) + c * kBlockStride, 64-byte aligned.
//
// Element reads (operator(), row()) work anywhere; code that runs a dense
// O(n k) pass anyway (the SVD-update, io) materializes with to_dense().

#include "la/dense.hpp"
#include "util/row_blocks.hpp"

namespace lsi::la {

class BlockedMatrix : public util::RowBlocks<double> {
 public:
  BlockedMatrix() = default;
  /// An empty matrix of `cols` columns.
  explicit BlockedMatrix(index_t cols) : RowBlocks(cols) {}
  /// Copies a dense matrix (implicit, so `space.v = dense` keeps working).
  BlockedMatrix(const DenseMatrix& m);  // NOLINT(google-explicit-constructor)

  index_t cols() const noexcept { return width(); }
  /// Copy of row i.
  Vector row(index_t i) const;
  /// Copy of column j (const: V is not written through it).
  const Vector col(index_t j) const;
  bool same_shape(const BlockedMatrix& other) const noexcept {
    return rows() == other.rows() && cols() == other.cols();
  }
  /// Contiguous column-major copy.
  DenseMatrix to_dense() const;
  /// Appends the rows of `other` (same column count; any count when empty).
  void append_rows(const DenseMatrix& other);
  /// this * b as a new matrix with this one's rows: each column is the sum
  /// of the b(l, j)-scaled columns l of this, l ascending, zero terms
  /// skipped — la::multiply's arithmetic, so the bits are the same.
  BlockedMatrix multiply(const DenseMatrix& b) const;
};

}  // namespace lsi::la
