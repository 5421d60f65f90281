#include "lsi/flops.hpp"

namespace lsi::core {

namespace {

std::uint64_t dense_rotation_term(const FlopModelParams& x) {
  // (2k^2 - k)(m + n): the U_k U_F / V_k V_F products of Equation (13).
  return (2 * x.k * x.k - x.k) * (x.m + x.n);
}

}  // namespace

std::uint64_t flops_fold_documents(const FlopModelParams& x) {
  return 2 * x.m * x.k * x.p;
}

std::uint64_t flops_fold_terms(const FlopModelParams& x) {
  return 2 * x.n * x.k * x.q;
}

std::uint64_t flops_update_documents(const FlopModelParams& x) {
  const std::uint64_t per_iter =
      4 * x.nnz_d + 4 * x.m * x.k + x.k * x.k + 2 * x.m + x.p;
  const std::uint64_t per_triplet = 2 * x.nnz_d + 2 * x.m * x.k + x.m;
  return x.iterations * per_iter + x.triplets * per_triplet +
         dense_rotation_term(x);
}

std::uint64_t flops_update_terms(const FlopModelParams& x) {
  const std::uint64_t per_iter =
      4 * x.nnz_t + 4 * x.k * x.n + x.k * x.k + 2 * x.n + x.q;
  const std::uint64_t per_triplet = 2 * x.nnz_t + 2 * x.k * x.n + x.n;
  return x.iterations * per_iter + x.triplets * per_triplet +
         dense_rotation_term(x);
}

std::uint64_t flops_update_weights(const FlopModelParams& x) {
  const std::uint64_t per_iter = 4 * x.nnz_z + 4 * x.k * x.m + 2 * x.m * x.j +
                                 2 * x.k * x.n + 3 * x.k * x.k + x.j * x.m;
  const std::uint64_t per_triplet =
      2 * x.nnz_z + 2 * x.k * x.m + 2 * x.k * x.n + x.j * x.n;
  return x.iterations * per_iter + x.triplets * per_triplet +
         dense_rotation_term(x);
}

std::uint64_t flops_recompute(const FlopModelParams& x) {
  const std::uint64_t rows = x.m + x.q;
  const std::uint64_t cols = x.n + x.p;
  const std::uint64_t per_iter = 4 * x.nnz_a + rows + cols;
  const std::uint64_t per_triplet = 2 * x.nnz_a + rows;
  return x.iterations * per_iter + x.triplets * per_triplet;
}

std::uint64_t flops_batch_project(const FlopModelParams& x) {
  return 2 * x.nnz_q * x.k + x.k * x.b;
}

std::uint64_t flops_batch_score(const FlopModelParams& x) {
  return 3 * x.k * x.b + 2 * x.n * x.k * x.b + x.n * x.b;
}

std::uint64_t flops_doc_norm_cache(const FlopModelParams& x) {
  return 3 * x.n * x.k + x.n;
}

}  // namespace lsi::core
