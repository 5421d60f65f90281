// Portable kernel: the scalar code every hot path ran before dispatch
// existed, moved here verbatim so its results stay bit-identical to the
// pre-kernel library.

#include "la/kernels.hpp"

#include <algorithm>

namespace lsi::la::kern {

namespace {

double dot_portable(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void axpy_portable(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void axpy4_portable(const double* a4, const double* x, double* y0, double* y1,
                    double* y2, double* y3, std::size_t n) {
  const double a0 = a4[0], a1 = a4[1], a2 = a4[2], a3 = a4[3];
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    y0[i] += a0 * xi;
    y1[i] += a1 * xi;
    y2[i] += a2 * xi;
    y3[i] += a3 * xi;
  }
}

void axpy_bf16_portable(float a, const std::uint16_t* x, float* y,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * bf16_to_f32(x[i]);
}

void axpy4_bf16_portable(const float* a4, const std::uint16_t* x, float* y0,
                         float* y1, float* y2, float* y3, std::size_t n) {
  const float a0 = a4[0], a1 = a4[1], a2 = a4[2], a3 = a4[3];
  for (std::size_t i = 0; i < n; ++i) {
    const float xi = bf16_to_f32(x[i]);
    y0[i] += a0 * xi;
    y1[i] += a1 * xi;
    y2[i] += a2 * xi;
    y3[i] += a3 * xi;
  }
}

/// One R x C tile of C = A B: the tile's sums stay in locals over the whole
/// depth, each starting at +0 and adding one product per l, l ascending.
template <std::size_t R, std::size_t C>
void matmul_tile(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc,
                 std::size_t depth) {
  double acc[C][R] = {};
  for (std::size_t l = 0; l < depth; ++l) {
    const double* al = a + l * lda;
    for (std::size_t q = 0; q < C; ++q) {
      const double blq = b[l + q * ldb];
      for (std::size_t r = 0; r < R; ++r) acc[q][r] += al[r] * blq;
    }
  }
  for (std::size_t q = 0; q < C; ++q) {
    for (std::size_t r = 0; r < R; ++r) c[r + q * ldc] = acc[q][r];
  }
}

/// Columns [0, C) of rows [0, m) of C = A B, 8 rows at a time.
template <std::size_t C>
void matmul_cols(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                 std::size_t depth) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    matmul_tile<8, C>(a + i, lda, b, ldb, c + i, ldc, depth);
  }
  for (; i < m; ++i) matmul_tile<1, C>(a + i, lda, b, ldb, c + i, ldc, depth);
}

void matmul_portable(const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, std::size_t ldc,
                     std::size_t m, std::size_t n, std::size_t depth) {
  // 128-row panels of A (32 KiB at depth 32) stay cache-resident while every
  // column tile of C passes over them.
  constexpr std::size_t kPanel = 128;
  for (std::size_t i = 0; i < m; i += kPanel) {
    const std::size_t rows = std::min(kPanel, m - i);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      matmul_cols<4>(a + i, lda, b + j * ldb, ldb, c + i + j * ldc, ldc, rows,
                     depth);
    }
    for (; j < n; ++j) {
      matmul_cols<1>(a + i, lda, b + j * ldb, ldb, c + i + j * ldc, ldc, rows,
                     depth);
    }
  }
}

void cos_norm_portable(double qn, const double* dn, double* y,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (qn == 0.0 || dn[i] == 0.0) ? 0.0 : y[i] / (qn * dn[i]);
  }
}

void cos_norm_f32_portable(double qn, const float* acc, const double* dn,
                           double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (qn == 0.0 || dn[i] == 0.0)
                 ? 0.0
                 : static_cast<double>(acc[i]) / (qn * dn[i]);
  }
}

constexpr Ops kPortableOps = {
    "portable",          dot_portable,       axpy_portable,
    axpy4_portable,      axpy_bf16_portable, axpy4_bf16_portable,
    matmul_portable,     cos_norm_portable,  cos_norm_f32_portable,
};

}  // namespace

const Ops& portable() noexcept { return kPortableOps; }

}  // namespace lsi::la::kern
