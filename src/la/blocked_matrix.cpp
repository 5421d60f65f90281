#include "la/blocked_matrix.hpp"

#include <cassert>

#include "util/thread_pool.hpp"

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
  // One stretch per block; filled after the append (the rows are c's alone)
  // so the blocks can be computed in parallel.
  struct Stretch {
    double* dst;
    std::size_t first, len;
  };
  std::vector<Stretch> stretches;
  c.append_stretches(rows(), [&](double* dst, std::size_t i, std::size_t len) {
    stretches.push_back({dst, i, len});
  });
  util::parallel_for(
      0, stretches.size(),
      [&](std::size_t s) {
        const Stretch& st = stretches[s];
        const double* src = block(st.first / util::kBlockRows);
        for (index_t j = 0; j < b.cols(); ++j) {
          const std::span<double> cj(st.dst + j * util::kBlockStride, st.len);
          for (index_t l = 0; l < cols(); ++l) {
            const double blj = b(l, j);
            if (blj == 0.0) continue;
            axpy(blj, {src + l * util::kBlockStride, st.len}, cj);
          }
        }
      },
      /*grain=*/1);
  return c;
}

}  // namespace lsi::la
