// Sparse matrix tests: assembly, format invariants, products vs dense
// references, and structural edits (append rows/cols).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "la/sparse.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi::la;

CscMatrix random_sparse(index_t m, index_t n, double density,
                        std::uint64_t seed) {
  lsi::util::Rng rng(seed);
  CooBuilder b(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      if (rng.bernoulli(density)) b.add(i, j, rng.normal());
    }
  }
  return b.to_csc();
}

TEST(Coo, MergesDuplicates) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 1, -1.0);
  auto a = b.to_csc();
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -1.0);
}

TEST(Coo, DropsCancellingEntries) {
  CooBuilder b(2, 2);
  b.add(0, 1, 2.0);
  b.add(0, 1, -2.0);
  auto a = b.to_csc();
  EXPECT_EQ(a.nnz(), 0u);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.0);
}

TEST(Csc, FromDenseRoundTrip) {
  auto d = DenseMatrix::from_rows({{1, 0, 2}, {0, 0, 3}});
  auto s = CscMatrix::from_dense(d);
  EXPECT_EQ(s.nnz(), 3u);
  EXPECT_NEAR(max_abs_diff(s.to_dense(), d), 0.0, 0.0);
}

TEST(Csc, ColumnViewsSortedByRow) {
  auto s = random_sparse(40, 30, 0.2, 5);
  for (index_t j = 0; j < s.cols(); ++j) {
    auto rows = s.col_rows(j);
    for (std::size_t p = 1; p < rows.size(); ++p) {
      EXPECT_LT(rows[p - 1], rows[p]);
    }
  }
}

TEST(Csc, Density) {
  auto d = DenseMatrix::from_rows({{1, 0}, {0, 1}});
  auto s = CscMatrix::from_dense(d);
  EXPECT_DOUBLE_EQ(s.density(), 0.5);
}

TEST(Csc, AtFindsEntriesAndZeros) {
  auto s = random_sparse(25, 17, 0.15, 6);
  auto d = s.to_dense();
  for (index_t j = 0; j < s.cols(); ++j) {
    for (index_t i = 0; i < s.rows(); ++i) {
      EXPECT_DOUBLE_EQ(s.at(i, j), d(i, j));
    }
  }
}

TEST(Csc, AppendCols) {
  auto a = random_sparse(10, 4, 0.3, 7);
  auto b = random_sparse(10, 3, 0.3, 8);
  auto c = a.with_appended_cols(b);
  EXPECT_EQ(c.cols(), 7u);
  EXPECT_EQ(c.nnz(), a.nnz() + b.nnz());
  auto cd = c.to_dense();
  auto ad = a.to_dense();
  auto bd = b.to_dense();
  for (index_t i = 0; i < 10; ++i) {
    for (index_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(cd(i, j), ad(i, j));
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(cd(i, 4 + j), bd(i, j));
  }
}

TEST(Csc, AppendRows) {
  auto a = random_sparse(5, 6, 0.3, 9);
  auto b = random_sparse(4, 6, 0.3, 10);
  auto c = a.with_appended_rows(b);
  EXPECT_EQ(c.rows(), 9u);
  auto cd = c.to_dense();
  auto ad = a.to_dense();
  auto bd = b.to_dense();
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(cd(i, j), ad(i, j));
    for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(cd(5 + i, j), bd(i, j));
  }
}

TEST(Csc, TransformValuesTouchesOnlyNonzeros) {
  auto d = DenseMatrix::from_rows({{2, 0}, {0, -3}});
  auto s = CscMatrix::from_dense(d);
  auto t = s.transform_values(
      [](index_t, index_t, double v) { return v * v; });
  EXPECT_DOUBLE_EQ(t.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 9.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 0.0);
}

class SparseApply
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(SparseApply, MatchesDenseReference) {
  auto [m, n, density] = GetParam();
  auto s = random_sparse(m, n, density, 42 + m + n);
  auto d = s.to_dense();
  lsi::util::Rng rng(7);

  Vector x(n), y(m);
  for (double& v : x) v = rng.normal();
  s.apply(x, y);
  auto yref = multiply(d, x);
  for (index_t i = 0; i < static_cast<index_t>(m); ++i) {
    EXPECT_NEAR(y[i], yref[i], 1e-12);
  }

  Vector xt(m), yt(n);
  for (double& v : xt) v = rng.normal();
  s.apply_transpose(xt, yt);
  auto ytref = multiply_transpose(d, xt);
  for (index_t i = 0; i < static_cast<index_t>(n); ++i) {
    EXPECT_NEAR(yt[i], ytref[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDensities, SparseApply,
    ::testing::Values(std::tuple{1, 1, 1.0}, std::tuple{10, 10, 0.0},
                      std::tuple{17, 9, 0.1}, std::tuple{64, 128, 0.05},
                      std::tuple{200, 50, 0.02}, std::tuple{33, 77, 0.5}));

TEST(Operators, CscOperatorForwards) {
  auto s = random_sparse(12, 8, 0.4, 11);
  CscOperator op(s);
  EXPECT_EQ(op.rows(), 12u);
  EXPECT_EQ(op.cols(), 8u);
  Vector x(8, 1.0), y(12, 0.0), yref(12, 0.0);
  op.apply(x, y);
  s.apply(x, yref);
  for (index_t i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(y[i], yref[i]);
}

TEST(Operators, DenseOperatorMatchesDense) {
  auto d = DenseMatrix::from_rows({{1, 2, 0}, {0, 1, -1}});
  DenseOperator op(d);
  Vector x = {1, 1, 1};
  Vector y(2, 0.0);
  op.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  Vector xt = {1, 2};
  Vector yt(3, 0.0);
  op.apply_transpose(xt, yt);
  EXPECT_DOUBLE_EQ(yt[0], 1.0);
  EXPECT_DOUBLE_EQ(yt[1], 4.0);
  EXPECT_DOUBLE_EQ(yt[2], -2.0);
}

TEST(SparseVectorOps, MultiplyTransposeBitIdenticalToDense) {
  // A^T x over the nonzeros of x must equal the dense product to the last
  // bit: the sparse sum adds the same products in the same row order.
  const CscMatrix sparse_a = random_sparse(37, 6, 1.0, 41);
  const DenseMatrix a = sparse_a.to_dense();
  for (const CscMatrix& xs : {random_sparse(37, 4, 0.2, 42),
                              random_sparse(37, 2, 1.0, 43)}) {
    for (index_t j = 0; j < xs.cols(); ++j) {
      const Vector x = SparseVector{{xs.col_rows(j).begin(),
                                     xs.col_rows(j).end()},
                                    {xs.col_values(j).begin(),
                                     xs.col_values(j).end()}}
                           .to_dense(37);
      const Vector want = multiply_transpose(a, x);
      Vector got(a.cols());
      multiply_transpose(a, xs.col_rows(j), xs.col_values(j), got);
      const SparseVector back = SparseVector::from_dense(x);
      EXPECT_EQ(back.rows.size(), xs.col_rows(j).size());
      for (index_t i = 0; i < a.cols(); ++i) {
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
            << "column " << j << " factor " << i;
      }
    }
  }
  Vector empty(a.cols(), 7.0);
  multiply_transpose(a, {}, {}, empty);
  for (double v : empty) EXPECT_EQ(v, 0.0);
}

TEST(SparseVectorOps, FromColumnsStacksColumnsAsIs) {
  const CscMatrix a = random_sparse(9, 5, 0.4, 44);
  std::vector<SparseVector> cols(a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    cols[j] = {{a.col_rows(j).begin(), a.col_rows(j).end()},
               {a.col_values(j).begin(), a.col_values(j).end()}};
  }
  const CscMatrix b = CscMatrix::from_columns(a.rows(), cols);
  EXPECT_EQ(b.rows(), a.rows());
  EXPECT_EQ(b.cols(), a.cols());
  EXPECT_TRUE(std::equal(b.col_ptr().begin(), b.col_ptr().end(),
                         a.col_ptr().begin(), a.col_ptr().end()));
  EXPECT_TRUE(std::equal(b.row_idx().begin(), b.row_idx().end(),
                         a.row_idx().begin(), a.row_idx().end()));
  EXPECT_TRUE(std::equal(b.values().begin(), b.values().end(),
                         a.values().begin(), a.values().end()));
  EXPECT_EQ(CscMatrix::from_columns(4, {}).cols(), 0u);
}

}  // namespace
