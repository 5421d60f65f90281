#pragma once
// Values held once behind shared_ptr<const T>: copying the handle shares the
// value, assigning a new value replaces it and leaves every copy as it was.
// SemanticSpace keeps U and sigma this way, so a fold-in publish (which
// never writes them) shares them with every snapshot until a consolidation
// assigns new ones. The typed handles forward the const interface, so reads
// spell the same as on the plain value and bind to `const T&` parameters.

#include <memory>
#include <span>
#include <vector>

#include "la/dense.hpp"

namespace lsi::la {

template <class T>
class Shared {
 public:
  Shared() : p_(std::make_shared<const T>()) {}
  Shared(T value)  // NOLINT(google-explicit-constructor)
      : p_(std::make_shared<const T>(std::move(value))) {}

  const T& get() const noexcept { return *p_; }
  operator const T&() const noexcept { return *p_; }  // NOLINT
  /// True when both handles hold the same object (not merely equal values).
  bool same_object(const Shared& other) const noexcept {
    return p_ == other.p_;
  }

 protected:
  std::shared_ptr<const T> p_;
};

/// U: a shared, immutable DenseMatrix.
class SharedMatrix : public Shared<DenseMatrix> {
 public:
  using Shared::Shared;
  index_t rows() const noexcept { return p_->rows(); }
  index_t cols() const noexcept { return p_->cols(); }
  double operator()(index_t i, index_t j) const noexcept {
    return (*p_)(i, j);
  }
  std::span<const double> col(index_t j) const noexcept { return p_->col(j); }
  Vector row(index_t i) const { return p_->row(i); }
  const double* data() const noexcept { return p_->data(); }
  bool same_shape(const DenseMatrix& other) const noexcept {
    return p_->same_shape(other);
  }
};

/// sigma: a shared, immutable vector of doubles.
class SharedVector : public Shared<std::vector<double>> {
 public:
  using Shared::Shared;
  std::size_t size() const noexcept { return p_->size(); }
  bool empty() const noexcept { return p_->empty(); }
  double operator[](std::size_t i) const noexcept { return (*p_)[i]; }
  const double* data() const noexcept { return p_->data(); }
  const double* begin() const noexcept { return p_->data(); }
  const double* end() const noexcept { return p_->data() + p_->size(); }
  double back() const noexcept { return p_->back(); }
  friend bool operator==(const SharedVector& a, const SharedVector& b) {
    return *a.p_ == *b.p_;
  }
};

}  // namespace lsi::la
