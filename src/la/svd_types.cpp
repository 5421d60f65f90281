#include "la/svd_types.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

namespace lsi::la {

void SvdResult::truncate(index_t k) {
  if (k >= rank()) return;
  u = u.first_cols(k);
  v = v.first_cols(k);
  s.resize(k);
}

DenseMatrix SvdResult::reconstruct() const {
  return multiply_a_bt(scale_cols(u, s), v);
}

void normalize_signs(SvdResult& svd) {
  for (index_t j = 0; j < svd.rank(); ++j) {
    auto uj = svd.u.col(j);
    index_t arg = 0;
    double best = 0.0;
    for (index_t i = 0; i < uj.size(); ++i) {
      if (std::fabs(uj[i]) > best) {
        best = std::fabs(uj[i]);
        arg = i;
      }
    }
    if (uj.empty() || uj[arg] >= 0.0) continue;
    scale(uj, -1.0);
    scale(svd.v.col(j), -1.0);
  }
}

void sort_descending(SvdResult& svd) {
  const index_t k = svd.rank();
  std::vector<index_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return svd.s[a] > svd.s[b];
  });
  SvdResult out;
  out.s.resize(k);
  out.u = DenseMatrix(svd.u.rows(), k);
  out.v = DenseMatrix(svd.v.rows(), k);
  for (index_t j = 0; j < k; ++j) {
    out.s[j] = svd.s[order[j]];
    auto us = svd.u.col(order[j]);
    auto ud = out.u.col(j);
    std::copy(us.begin(), us.end(), ud.begin());
    auto vs = svd.v.col(order[j]);
    auto vd = out.v.col(j);
    std::copy(vs.begin(), vs.end(), vd.begin());
  }
  svd = std::move(out);
}

}  // namespace lsi::la
