#include "la/blocked_matrix.hpp"

#include <cassert>

#include "la/kernels.hpp"

namespace lsi::la {

BlockedMatrix::BlockedMatrix(const DenseMatrix& m) : RowBlocks(m.cols()) {
  append_rows(m);
}

Vector BlockedMatrix::row(index_t i) const {
  Vector r(cols());
  for (index_t j = 0; j < cols(); ++j) r[j] = (*this)(i, j);
  return r;
}

const Vector BlockedMatrix::col(index_t j) const {
  Vector c(rows());
  for (index_t i = 0; i < rows(); ++i) c[i] = (*this)(i, j);
  return c;
}

DenseMatrix BlockedMatrix::to_dense() const {
  DenseMatrix out(rows(), cols());
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    const double* blk = block(b);
    const std::size_t lo = b * util::kBlockRows;
    for (index_t j = 0; j < cols(); ++j) {
      std::copy_n(blk + j * util::kBlockStride, block_rows(b),
                  out.col(j).data() + lo);
    }
  }
  return out;
}

void BlockedMatrix::append_rows(const DenseMatrix& other) {
  if (rows() == 0 && cols() != other.cols()) {
    *this = BlockedMatrix(other.cols());
  }
  assert(other.cols() == cols());
  append_stretches(other.rows(),
                   [&](double* dst, std::size_t i, std::size_t len) {
                     for (index_t j = 0; j < cols(); ++j) {
                       std::copy_n(other.col(j).data() + i, len,
                                   dst + j * util::kBlockStride);
                     }
                   });
}

BlockedMatrix BlockedMatrix::multiply(const DenseMatrix& b) const {
  assert(b.rows() == cols());
  BlockedMatrix c(b.cols());
  const kern::Ops& ops = kern::active();
  c.append_stretches(rows(), [&](double* dst, std::size_t i, std::size_t len) {
    ops.matmul(block(i / util::kBlockRows), util::kBlockStride, b.data(),
               b.rows(), dst, util::kBlockStride, len, b.cols(), cols());
  });
  return c;
}

}  // namespace lsi::la
