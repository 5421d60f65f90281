#include "la/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "la/kernels.hpp"
#include "util/thread_pool.hpp"

namespace lsi::la {

DenseMatrix DenseMatrix::from_rows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  DenseMatrix m(rows.size(), rows[0].size());
  for (index_t i = 0; i < m.rows(); ++i) {
    assert(rows[i].size() == m.cols());
    for (index_t j = 0; j < m.cols(); ++j) m(i, j) = rows[i][j];
  }
  return m;
}

DenseMatrix DenseMatrix::identity(index_t n) {
  DenseMatrix m(n, n);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector DenseMatrix::row(index_t i) const {
  Vector r(cols_);
  for (index_t j = 0; j < cols_; ++j) r[j] = (*this)(i, j);
  return r;
}

DenseMatrix DenseMatrix::first_cols(index_t k) const {
  assert(k <= cols_);
  DenseMatrix out(rows_, k);
  for (index_t j = 0; j < k; ++j) {
    auto src = col(j);
    auto dst = out.col(j);
    for (index_t i = 0; i < rows_; ++i) dst[i] = src[i];
  }
  return out;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t i = 0; i < rows_; ++i) out(j, i) = (*this)(i, j);
  }
  return out;
}

void DenseMatrix::append_cols(const DenseMatrix& other) {
  if (empty()) {
    *this = other;
    return;
  }
  assert(rows_ == other.rows_);
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  cols_ += other.cols_;
}

void DenseMatrix::append_rows(const DenseMatrix& other) {
  if (empty()) {
    *this = other;
    return;
  }
  assert(cols_ == other.cols_);
  DenseMatrix out(rows_ + other.rows_, cols_);
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t i = 0; i < rows_; ++i) out(i, j) = (*this)(i, j);
    for (index_t i = 0; i < other.rows_; ++i) {
      out(rows_ + i, j) = other(i, j);
    }
  }
  *this = std::move(out);
}

double DenseMatrix::frobenius_norm() const noexcept {
  return la::norm2(std::span<const double>{data_.data(), data_.size()});
}

double DenseMatrix::max_abs() const noexcept {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

void DenseMatrix::add_scaled(const DenseMatrix& other, double alpha) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void DenseMatrix::scale_all(double alpha) noexcept {
  for (double& v : data_) v *= alpha;
}

DenseMatrix multiply(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols());
  // Register-tiled on the calling thread: each entry of C sums its products
  // l ascending, which is the bits of one axpy per (column, column) pair.
  kern::active().matmul(a.data(), a.rows(), b.data(), b.rows(), c.data(),
                        c.rows(), a.rows(), b.cols(), a.cols());
  return c;
}

DenseMatrix multiply_at_b(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.rows() == b.rows());
  DenseMatrix c(a.cols(), b.cols());
  util::parallel_for(
      0, b.cols(),
      [&](std::size_t j) {
        auto cj = c.col(j);
        auto bj = b.col(j);
        for (index_t i = 0; i < a.cols(); ++i) cj[i] = dot(a.col(i), bj);
      },
      /*grain=*/8);
  return c;
}

DenseMatrix multiply_a_bt(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.cols() == b.cols());
  DenseMatrix c(a.rows(), b.rows());
  util::parallel_for(
      0, b.rows(),
      [&](std::size_t j) {
        auto cj = c.col(j);
        for (index_t l = 0; l < a.cols(); ++l) {
          const double w = b(j, l);
          if (w == 0.0) continue;
          axpy(w, a.col(l), cj);
        }
      },
      /*grain=*/8);
  return c;
}

Vector multiply(const DenseMatrix& a, std::span<const double> x) {
  assert(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  for (index_t j = 0; j < a.cols(); ++j) {
    if (x[j] == 0.0) continue;
    axpy(x[j], a.col(j), y);
  }
  return y;
}

Vector multiply_transpose(const DenseMatrix& a, std::span<const double> x) {
  assert(a.rows() == x.size());
  Vector y(a.cols());
  for (index_t j = 0; j < a.cols(); ++j) y[j] = dot(a.col(j), x);
  return y;
}

DenseMatrix scale_cols(const DenseMatrix& a, std::span<const double> d) {
  assert(d.size() == a.cols());
  DenseMatrix out = a;
  for (index_t j = 0; j < out.cols(); ++j) scale(out.col(j), d[j]);
  return out;
}

DenseMatrix scale_rows(const DenseMatrix& a, std::span<const double> d) {
  assert(d.size() == a.rows());
  DenseMatrix out = a;
  for (index_t j = 0; j < out.cols(); ++j) {
    auto cj = out.col(j);
    for (index_t i = 0; i < out.rows(); ++i) cj[i] *= d[i];
  }
  return out;
}

double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.same_shape(b));
  double best = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    auto aj = a.col(j);
    auto bj = b.col(j);
    for (index_t i = 0; i < a.rows(); ++i) {
      best = std::max(best, std::fabs(aj[i] - bj[i]));
    }
  }
  return best;
}

double orthonormality_error(const DenseMatrix& q) {
  const DenseMatrix g = multiply_at_b(q, q);
  double best = 0.0;
  for (index_t j = 0; j < g.cols(); ++j) {
    for (index_t i = 0; i < g.rows(); ++i) {
      const double target = (i == j) ? 1.0 : 0.0;
      best = std::max(best, std::fabs(g(i, j) - target));
    }
  }
  return best;
}

std::string to_string(const DenseMatrix& a, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      ss << std::setw(precision + 8) << a(i, j);
    }
    ss << '\n';
  }
  return ss.str();
}

}  // namespace lsi::la
