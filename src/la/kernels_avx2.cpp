// AVX2/FMA kernel. Compiled with -mavx2 -mfma -ffp-contract=off (see
// src/la/CMakeLists.txt): contraction is disabled so the scalar tails below
// round exactly like the portable kernel — fused multiply-adds appear only
// where written explicitly, in the reduction kernels whose contract already
// allows reassociation.
//
//   * axpy / axpy4 / axpy_bf16 / axpy4_bf16 / matmul are elementwise (packed
//     multiply then packed add, one rounding each — the same two roundings
//     the scalar code performs per element), so they are bit-identical to
//     portable.
//   * dot uses 4-lane FMA accumulators with a fixed lane-reduction order
//     ((l0+l2) + (l1+l3)); results differ from portable within the ULP bound
//     stated in docs/KERNELS.md, but are deterministic per length.

#include "la/kernels.hpp"

#include <immintrin.h>

#include <algorithm>

namespace lsi::la::kern {

namespace {

inline double reduce4(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // l0, l1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // l2, l3
  const __m128d sum2 = _mm_add_pd(lo, hi);            // l0+l2, l1+l3
  return _mm_cvtsd_f64(sum2) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(sum2, sum2));
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  double s = reduce4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void axpy4_avx2(const double* a4, const double* x, double* y0, double* y1,
                double* y2, double* y3, std::size_t n) {
  const __m256d va0 = _mm256_set1_pd(a4[0]);
  const __m256d va1 = _mm256_set1_pd(a4[1]);
  const __m256d va2 = _mm256_set1_pd(a4[2]);
  const __m256d va3 = _mm256_set1_pd(a4[3]);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y0 + i, _mm256_add_pd(_mm256_loadu_pd(y0 + i),
                                           _mm256_mul_pd(va0, vx)));
    _mm256_storeu_pd(y1 + i, _mm256_add_pd(_mm256_loadu_pd(y1 + i),
                                           _mm256_mul_pd(va1, vx)));
    _mm256_storeu_pd(y2 + i, _mm256_add_pd(_mm256_loadu_pd(y2 + i),
                                           _mm256_mul_pd(va2, vx)));
    _mm256_storeu_pd(y3 + i, _mm256_add_pd(_mm256_loadu_pd(y3 + i),
                                           _mm256_mul_pd(va3, vx)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    y0[i] += a4[0] * xi;
    y1[i] += a4[1] * xi;
    y2[i] += a4[2] * xi;
    y3[i] += a4[3] * xi;
  }
}

/// Columns [0, C) of rows [0, 8) of C = A B: 8 x C sums in 2 x C registers
/// over the whole depth, each a packed multiply then a packed add per l
/// (the scalar loop's two roundings), l ascending.
template <std::size_t C>
void matmul_tile_avx2(const double* a, std::size_t lda, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      std::size_t depth) {
  __m256d acc[C][2];
  for (std::size_t q = 0; q < C; ++q) {
    acc[q][0] = _mm256_setzero_pd();
    acc[q][1] = _mm256_setzero_pd();
  }
  for (std::size_t l = 0; l < depth; ++l) {
    const __m256d a0 = _mm256_loadu_pd(a + l * lda);
    const __m256d a1 = _mm256_loadu_pd(a + l * lda + 4);
    for (std::size_t q = 0; q < C; ++q) {
      const __m256d vb = _mm256_broadcast_sd(b + l + q * ldb);
      acc[q][0] = _mm256_add_pd(acc[q][0], _mm256_mul_pd(a0, vb));
      acc[q][1] = _mm256_add_pd(acc[q][1], _mm256_mul_pd(a1, vb));
    }
  }
  for (std::size_t q = 0; q < C; ++q) {
    _mm256_storeu_pd(c + q * ldc, acc[q][0]);
    _mm256_storeu_pd(c + q * ldc + 4, acc[q][1]);
  }
}

void matmul_avx2(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t depth) {
  // 128-row panels of A (32 KiB at depth 32) stay cache-resident while every
  // column tile of C passes over them.
  constexpr std::size_t kPanel = 128;
  const std::size_t m8 = m - m % 8;
  for (std::size_t i = 0; i < m8; i += kPanel) {
    const std::size_t end = std::min(m8, i + kPanel);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      for (std::size_t r = i; r < end; r += 8) {
        matmul_tile_avx2<4>(a + r, lda, b + j * ldb, ldb, c + r + j * ldc,
                            ldc, depth);
      }
    }
    for (; j < n; ++j) {
      for (std::size_t r = i; r < end; r += 8) {
        matmul_tile_avx2<1>(a + r, lda, b + j * ldb, ldb, c + r + j * ldc,
                            ldc, depth);
      }
    }
  }
  // The last m % 8 rows take the scalar kernel, which rounds the same way.
  portable().matmul(a + m8, lda, b, ldb, c + m8, ldc, m - m8, n, depth);
}

inline __m256 bf16_decode8(const std::uint16_t* x) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x));
  const __m256i wide = _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16);
  return _mm256_castsi256_ps(wide);
}

void axpy_bf16_avx2(float a, const std::uint16_t* x, float* y,
                    std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, bf16_decode8(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * bf16_to_f32(x[i]);
}

void axpy4_bf16_avx2(const float* a4, const std::uint16_t* x, float* y0,
                     float* y1, float* y2, float* y3, std::size_t n) {
  const __m256 va0 = _mm256_set1_ps(a4[0]);
  const __m256 va1 = _mm256_set1_ps(a4[1]);
  const __m256 va2 = _mm256_set1_ps(a4[2]);
  const __m256 va3 = _mm256_set1_ps(a4[3]);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = bf16_decode8(x + i);
    _mm256_storeu_ps(y0 + i, _mm256_add_ps(_mm256_loadu_ps(y0 + i),
                                           _mm256_mul_ps(va0, vx)));
    _mm256_storeu_ps(y1 + i, _mm256_add_ps(_mm256_loadu_ps(y1 + i),
                                           _mm256_mul_ps(va1, vx)));
    _mm256_storeu_ps(y2 + i, _mm256_add_ps(_mm256_loadu_ps(y2 + i),
                                           _mm256_mul_ps(va2, vx)));
    _mm256_storeu_ps(y3 + i, _mm256_add_ps(_mm256_loadu_ps(y3 + i),
                                           _mm256_mul_ps(va3, vx)));
  }
  for (; i < n; ++i) {
    const float xi = bf16_to_f32(x[i]);
    y0[i] += a4[0] * xi;
    y1[i] += a4[1] * xi;
    y2[i] += a4[2] * xi;
    y3[i] += a4[3] * xi;
  }
}

void cos_norm_avx2(double qn, const double* dn, double* y, std::size_t n) {
  if (qn == 0.0) {
    for (std::size_t i = 0; i < n; ++i) y[i] = 0.0;
    return;
  }
  // Packed multiply and divide are correctly rounded, exactly like their
  // scalar forms, and the zero-norm guard is an exact compare-and-mask, so
  // this is bit-identical to the portable loop.
  const __m256d vq = _mm256_set1_pd(qn);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(dn + i);
    const __m256d q =
        _mm256_div_pd(_mm256_loadu_pd(y + i), _mm256_mul_pd(vq, d));
    const __m256d is0 = _mm256_cmp_pd(d, zero, _CMP_EQ_OQ);
    _mm256_storeu_pd(y + i, _mm256_andnot_pd(is0, q));
  }
  for (; i < n; ++i) y[i] = (dn[i] == 0.0) ? 0.0 : y[i] / (qn * dn[i]);
}

void cos_norm_f32_avx2(double qn, const float* acc, const double* dn,
                       double* out, std::size_t n) {
  if (qn == 0.0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0.0;
    return;
  }
  const __m256d vq = _mm256_set1_pd(qn);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a =
        _mm256_cvtps_pd(_mm_loadu_ps(acc + i));  // exact widening
    const __m256d d = _mm256_loadu_pd(dn + i);
    const __m256d q = _mm256_div_pd(a, _mm256_mul_pd(vq, d));
    const __m256d is0 = _mm256_cmp_pd(d, zero, _CMP_EQ_OQ);
    _mm256_storeu_pd(out + i, _mm256_andnot_pd(is0, q));
  }
  for (; i < n; ++i) {
    out[i] = (dn[i] == 0.0)
                 ? 0.0
                 : static_cast<double>(acc[i]) / (qn * dn[i]);
  }
}

constexpr Ops kAvx2Ops = {
    "avx2",          dot_avx2,        axpy_avx2,
    axpy4_avx2,      axpy_bf16_avx2,  axpy4_bf16_avx2,
    matmul_avx2,     cos_norm_avx2,   cos_norm_f32_avx2,
};

}  // namespace

const Ops* avx2() noexcept { return &kAvx2Ops; }

}  // namespace lsi::la::kern
