#pragma once
// Append-only row storage in fixed, shared blocks (docs/CONCURRENCY.md).
//
// A RowBlocks<T> holds `rows()` rows of `width()` values each, cut into
// blocks of kBlockRows rows. Inside a block the layout is column-major with
// a fixed leading dimension of kBlockStride: value (r, c) of block b lives
// at block(b)[c * kBlockStride + r - b * kBlockRows]. Every block is one
// 64-byte aligned allocation, and with T = double each column segment
// starts on a cache line. The stride is one cache line of doubles past
// kBlockRows: at exactly 512 doubles (4 KiB) the k values of one row would
// all map to the same L1 set, and row-wise reads would thrash it.
//
// Copies are O(1) and share everything: a handle is a pointer to a block
// table plus a row count. Appends never touch a row some copy can see. The
// table's `frontier` counts the rows ever claimed through it; a handle whose
// row count equals the frontier claims the next rows with one atomic
// compare-exchange and writes them in place (into the partial last block,
// then into fresh blocks). Rows past a handle's own count are invisible to
// it, so a snapshot that copied the handle earlier keeps reading exactly the
// bytes it was published with. Any other handle (one that fell behind the
// frontier, or was truncated) forks first: it shares the full blocks and
// copies only its partial last block. Readers never synchronize here; they
// see a handle only after it was handed to them under some other
// happens-before edge (the snapshot mutex).

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "util/aligned.hpp"

namespace lsi::util {

/// Rows per block: the exact scoring sweep's chunk grain.
inline constexpr std::size_t kBlockRows = 512;
/// Distance between two columns of a block, in elements.
inline constexpr std::size_t kBlockStride = kBlockRows + 8;

template <class T>
class RowBlocks {
 public:
  RowBlocks() = default;
  explicit RowBlocks(std::size_t width) : width_(width) {}

  /// One-wide storage holding `values` in order.
  static RowBlocks from_values(const std::vector<T>& values) {
    RowBlocks out(1);
    out.append(values.size(),
               [&](std::size_t i, std::size_t) { return values[i]; });
    return out;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t size() const noexcept { return rows_; }
  std::size_t width() const noexcept { return width_; }
  bool empty() const noexcept { return rows_ == 0; }
  std::size_t num_blocks() const noexcept {
    return (rows_ + kBlockRows - 1) / kBlockRows;
  }
  /// Rows held by block b: kBlockRows for every block but the last.
  std::size_t block_rows(std::size_t b) const noexcept {
    return std::min(kBlockRows, rows_ - b * kBlockRows);
  }
  /// Block b's storage; column c of its rows starts at block(b) + c *
  /// kBlockStride.
  const T* block(std::size_t b) const noexcept {
    return table_->blocks[b].get();
  }

  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    return block(r / kBlockRows)[c * kBlockStride + r % kBlockRows];
  }
  const T& operator[](std::size_t r) const noexcept { return (*this)(r, 0); }
  const T& back() const noexcept { return (*this)[rows_ - 1]; }

  /// Appends p rows; value(i, c) gives column c of new row i, called column
  /// by column within each block so the writes stream. Never writes a row
  /// another handle can read.
  template <class F>
  void append(std::size_t p, F&& value) {
    append_stretches(p, [&](T* dst, std::size_t i, std::size_t len) {
      for (std::size_t c = 0; c < width_; ++c) {
        for (std::size_t t = 0; t < len; ++t) {
          dst[c * kBlockStride + t] = value(i + t, c);
        }
      }
    });
  }

  /// Appends p rows and has fill(dst, i, len) write each stretch of them
  /// that lies in one block, in order: new rows [i, i + len), column c at
  /// dst + c * kBlockStride. The rows are this handle's alone until it is
  /// copied, so the stretches may also be written after the call returns.
  template <class F>
  void append_stretches(std::size_t p, F&& fill) {
    if (p == 0) return;
    claim(rows_ + p);
    for (std::size_t i = 0; i < p;) {
      const std::size_t r = rows_ + i;
      const std::size_t len = std::min(p - i, kBlockRows - r % kBlockRows);
      fill(table_->blocks[r / kBlockRows].get() + r % kBlockRows, i, len);
      i += len;
    }
    rows_ += p;
  }

  /// Drops rows [rows, rows()); the next append forks (the dropped rows may
  /// be visible to copies).
  void truncate(std::size_t rows) noexcept {
    rows_ = std::min(rows, rows_);
  }

  /// True when both handles read block b from the same allocation.
  bool shares_block(const RowBlocks& other, std::size_t b) const noexcept {
    return block(b) == other.block(b);
  }

  /// Elementwise copy of a one-wide array.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out.push_back((*this)[r]);
    return out;
  }

  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const RowBlocks* owner, std::size_t r) : o_(owner), r_(r) {}
    reference operator*() const { return (*o_)[r_]; }
    pointer operator->() const { return &(*o_)[r_]; }
    reference operator[](difference_type d) const { return *(*this + d); }
    const_iterator& operator++() { ++r_; return *this; }
    const_iterator operator++(int) { auto t = *this; ++r_; return t; }
    const_iterator& operator--() { --r_; return *this; }
    const_iterator operator--(int) { auto t = *this; --r_; return t; }
    const_iterator& operator+=(difference_type d) { r_ += d; return *this; }
    const_iterator& operator-=(difference_type d) { r_ -= d; return *this; }
    friend const_iterator operator+(const_iterator it, difference_type d) {
      return it += d;
    }
    friend const_iterator operator+(difference_type d, const_iterator it) {
      return it += d;
    }
    friend const_iterator operator-(const_iterator it, difference_type d) {
      return it -= d;
    }
    friend difference_type operator-(const_iterator a, const_iterator b) {
      return static_cast<difference_type>(a.r_) -
             static_cast<difference_type>(b.r_);
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.r_ == b.r_;
    }
    friend auto operator<=>(const_iterator a, const_iterator b) {
      return a.r_ <=> b.r_;
    }

   private:
    const RowBlocks* o_ = nullptr;
    std::size_t r_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, rows_}; }

  friend bool operator==(const RowBlocks& a, const RowBlocks& b) {
    if (a.rows_ != b.rows_ || a.width_ != b.width_) return false;
    for (std::size_t r = 0; r < a.rows_; ++r) {
      for (std::size_t c = 0; c < a.width_; ++c) {
        if (!(a(r, c) == b(r, c))) return false;
      }
    }
    return true;
  }
  friend bool operator==(const RowBlocks& a, const std::vector<T>& b) {
    return a.width_ == 1 && std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  struct Table {
    explicit Table(std::size_t capacity) : blocks(capacity) {}
    /// One slot per block this table can hold; null until allocated.
    std::vector<std::shared_ptr<T[]>> blocks;
    /// Rows ever claimed through this table: every row below it may be
    /// visible to some handle, every row at or above it to none.
    std::atomic<std::size_t> frontier{0};
  };

  std::shared_ptr<T[]> make_block() const {
    const std::size_t n = kBlockStride * width_;
    T* p = AlignedAllocator<T>().allocate(n);
    std::uninitialized_value_construct_n(p, n);
    return std::shared_ptr<T[]>(p, [n](T* q) {
      std::destroy_n(q, n);
      AlignedAllocator<T>().deallocate(q, n);
    });
  }

  /// Replaces the table by one of `capacity` slots that shares every full
  /// block and holds a private copy of the partial last one (only the rows
  /// this handle can see: later rows may be another handle's).
  void fork(std::size_t capacity) {
    auto t = std::make_shared<Table>(capacity);
    const std::size_t full = rows_ / kBlockRows;
    for (std::size_t b = 0; b < full; ++b) t->blocks[b] = table_->blocks[b];
    if (const std::size_t tail = rows_ % kBlockRows; tail > 0) {
      t->blocks[full] = make_block();
      for (std::size_t c = 0; c < width_; ++c) {
        std::copy_n(table_->blocks[full].get() + c * kBlockStride, tail,
                    t->blocks[full].get() + c * kBlockStride);
      }
    }
    t->frontier.store(rows_, std::memory_order_relaxed);
    table_ = std::move(t);
  }

  /// Makes rows [rows_, new_rows) this handle's to write.
  void claim(std::size_t new_rows) {
    const std::size_t need = (new_rows + kBlockRows - 1) / kBlockRows;
    std::size_t expected = rows_;
    if (table_ == nullptr) {
      table_ = std::make_shared<Table>(std::max<std::size_t>(need, 4));
    } else if (!table_->frontier.compare_exchange_strong(expected, new_rows)) {
      fork(std::max(need, table_->blocks.size()));
    }
    if (need > table_->blocks.size()) {
      // Grow by doubling, so the pointer copies cost O(1) per block.
      auto t = std::make_shared<Table>(std::max(need, 2 * table_->blocks.size()));
      for (std::size_t b = 0; b < num_blocks(); ++b) {
        t->blocks[b] = table_->blocks[b];
      }
      table_ = std::move(t);
    }
    table_->frontier.store(new_rows, std::memory_order_relaxed);
    for (std::size_t b = num_blocks(); b < need; ++b) {
      if (table_->blocks[b] == nullptr) table_->blocks[b] = make_block();
    }
  }

  std::shared_ptr<Table> table_;
  std::size_t rows_ = 0;
  std::size_t width_ = 0;
};

}  // namespace lsi::util
