// Kernel parity/fuzz battery (docs/KERNELS.md): every registered Ops table
// is checked against plain scalar references over an exhaustive sweep of
// tiny shapes (all lengths in [0, 17], hitting every SIMD width boundary,
// remainder path, and the empty/degenerate cases) plus seeded-random large
// shapes that exercise the main vector loops.
//
// The contracts are the precision policy of la/kernels.hpp:
//   * elementwise kernels (axpy, axpy4, axpy_bf16, axpy4_bf16, matmul) must
//     be BIT-IDENTICAL to the scalar mul-then-add loop, for every kernel;
//   * the reduction kernel (dot) may reassociate, so it is checked against
//     a compensated reference within a stated ULP bound.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "la/kernels.hpp"
#include "util/row_blocks.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsi::la;

/// All kernels registered in this binary (portable always; avx2 when the
/// build has the TU and the CPU can run it).
std::vector<const kern::Ops*> registered_kernels() {
  std::vector<const kern::Ops*> out{&kern::portable()};
  if (kern::cpu_has_avx2() && kern::avx2() != nullptr) {
    out.push_back(kern::avx2());
  }
  return out;
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  lsi::util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

std::vector<std::uint16_t> random_bf16(std::size_t n, std::uint64_t seed) {
  lsi::util::Rng rng(seed);
  std::vector<std::uint16_t> v(n);
  for (auto& x : v) x = kern::bf16_from_f64(rng.normal());
  return v;
}

/// Compensated (Kahan) dot product: the high-accuracy reference the
/// reassociating reductions are compared against.
double kahan_dot(const double* x, const double* y, std::size_t n) {
  double sum = 0.0, comp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double term = x[i] * y[i] - comp;
    const double next = sum + term;
    comp = (next - sum) - term;
    sum = next;
  }
  return sum;
}

double abs_dot(const double* x, const double* y, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::abs(x[i] * y[i]);
  return s;
}

/// Reduction tolerance: reassociation moves the result by at most a few
/// rounding steps of the magnitude sum. 64 eps leaves room for the longest
/// fuzzed length while still catching any real algorithmic divergence.
double reduction_tol(const double* x, const double* y, std::size_t n) {
  constexpr double kEps = 2.220446049250313e-16;
  return 64.0 * kEps * (abs_dot(x, y, n) + 1.0);
}

// --- elementwise: bit-identical across every kernel -------------------------

TEST(KernelParity, AxpyBitIdenticalExhaustive) {
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n = 0; n <= 17; ++n) {
      const auto x = random_vec(n, 100 + n);
      const auto y0 = random_vec(n, 200 + n);
      const double a = -1.375;
      std::vector<double> want = y0;
      for (std::size_t i = 0; i < n; ++i) want[i] += a * x[i];
      std::vector<double> got = y0;
      ops->axpy(a, x.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[i], got[i]) << ops->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelParity, Axpy4BitIdenticalToFourAxpys) {
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 8ul, 17ul, 1031ul}) {
      const auto x = random_vec(n, 300 + n);
      const double a4[4] = {0.5, -2.25, 1e-3, 7.0};
      std::vector<std::vector<double>> want(4), got(4);
      for (int t = 0; t < 4; ++t) {
        want[t] = random_vec(n, 400 + n + t);
        got[t] = want[t];
        // Reference: the scalar chain, one stream at a time.
        for (std::size_t i = 0; i < n; ++i) want[t][i] += a4[t] * x[i];
      }
      ops->axpy4(a4, x.data(), got[0].data(), got[1].data(), got[2].data(),
                 got[3].data(), n);
      for (int t = 0; t < 4; ++t) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(want[t][i], got[t][i])
              << ops->name << " n=" << n << " t=" << t << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelParity, AxpyBf16BitIdenticalExhaustive) {
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n = 0; n <= 17; ++n) {
      const auto x = random_bf16(n, 500 + n);
      const float a = 0.3125f;
      std::vector<float> want(n), got(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = static_cast<float>(i) * 0.25f;
        got[i] = want[i];
        want[i] += a * kern::bf16_to_f32(x[i]);
      }
      ops->axpy_bf16(a, x.data(), got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[i], got[i]) << ops->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelParity, Axpy4Bf16BitIdenticalLarge) {
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 16ul, 17ul, 2049ul}) {
      const auto x = random_bf16(n, 600 + n);
      const float a4[4] = {1.0f, -0.5f, 3.0f, 0.125f};
      std::vector<std::vector<float>> want(4), got(4);
      for (int t = 0; t < 4; ++t) {
        want[t].assign(n, 0.5f * static_cast<float>(t));
        got[t] = want[t];
        for (std::size_t i = 0; i < n; ++i) {
          want[t][i] += a4[t] * kern::bf16_to_f32(x[i]);
        }
      }
      ops->axpy4_bf16(a4, x.data(), got[0].data(), got[1].data(),
                      got[2].data(), got[3].data(), n);
      for (int t = 0; t < 4; ++t) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(want[t][i], got[t][i])
              << ops->name << " n=" << n << " t=" << t << " i=" << i;
        }
      }
    }
  }
}

/// Checks ops->matmul on an m x depth A (leading dimension lda) times a
/// depth x n B against the axpy sequence la::multiply ran before the tile
/// kernel: column j of C starts at zero and takes axpy(b(l, j), A col l)
/// for l ascending, skipping zero coefficients. Every third coefficient and
/// every fifth entry of A is zero (one coefficient -0.0).
void expect_matmul_matches_axpys(const kern::Ops* ops, std::size_t m,
                                 std::size_t n, std::size_t depth,
                                 std::size_t lda, std::uint64_t seed) {
  auto a = random_vec(lda * depth, seed);
  for (std::size_t l = 0; l < depth; ++l) {
    for (std::size_t i = 0; i < m; i += 5) a[i + l * lda] = 0.0;
  }
  auto b = random_vec(depth * n, seed + 1);
  for (std::size_t t = 0; t < b.size(); t += 3) b[t] = 0.0;
  if (b.size() > 1) b[1] = -0.0;
  std::vector<double> want(lda * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t l = 0; l < depth; ++l) {
      const double blj = b[l + j * depth];
      if (blj == 0.0) continue;
      kern::portable().axpy(blj, a.data() + l * lda, want.data() + j * lda,
                            m);
    }
  }
  std::vector<double> got(lda * n, 42.0);
  ops->matmul(a.data(), lda, b.data(), depth, got.data(), lda, m, n, depth);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(want[i + j * lda], got[i + j * lda])
          << ops->name << " m=" << m << " n=" << n << " depth=" << depth
          << " i=" << i << " j=" << j;
    }
    // Rows past m are outside C and stay untouched.
    for (std::size_t i = m; i < lda; ++i) {
      ASSERT_EQ(got[i + j * lda], 42.0) << ops->name << " i=" << i;
    }
  }
}

TEST(KernelParity, MatmulBitIdenticalToAxpysExhaustive) {
  // Every row count through two 8-row tiles plus the 4-row and scalar
  // tails, every column count through two 4-column tiles plus the tail.
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t m = 0; m <= 19; ++m) {
      for (std::size_t n = 0; n <= 9; ++n) {
        for (std::size_t depth : {0ul, 1ul, 5ul}) {
          expect_matmul_matches_axpys(ops, m, n, depth, m + 3,
                                      800 + 31 * m + n + depth);
        }
      }
    }
  }
}

TEST(KernelParity, MatmulBitIdenticalOnBlockStride) {
  // V's layout: a full 512-row block and a partial one at the blocks'
  // leading dimension, rotated by a k x k map; also a tall U-like operand
  // that crosses several 128-row panels.
  for (const kern::Ops* ops : registered_kernels()) {
    expect_matmul_matches_axpys(ops, lsi::util::kBlockRows, 32, 32,
                                lsi::util::kBlockStride, 900);
    expect_matmul_matches_axpys(ops, 301, 30, 30, lsi::util::kBlockStride,
                                901);
    expect_matmul_matches_axpys(ops, 1037, 13, 21, 1037, 902);
  }
}

// --- reductions: ULP-bounded, deterministic per kernel ----------------------

TEST(KernelParity, CosNormBitIdenticalExhaustive) {
  // Multiplication and division are correctly rounded in scalar and packed
  // form, so the cosine-normalization kernels claim full bit identity —
  // including the zero-norm guard lanes and qn == 0 batches.
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n = 0; n <= 17; ++n) {
      for (const double qn : {0.0, 0.8125}) {
        const auto num = random_vec(n, 600 + n);
        auto dn = random_vec(n, 700 + n);
        for (std::size_t i = 0; i < n; i += 3) dn[i] = 0.0;  // guard lanes
        std::vector<double> want(n), got = num;
        for (std::size_t i = 0; i < n; ++i) {
          want[i] =
              (qn == 0.0 || dn[i] == 0.0) ? 0.0 : num[i] / (qn * dn[i]);
        }
        ops->cos_norm(qn, dn.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(want[i], got[i])
              << ops->name << " qn=" << qn << " n=" << n << " i=" << i;
        }
      }
    }
    // Large length: exercises the main vector loop plus remainder.
    const std::size_t n = 2053;
    const auto num = random_vec(n, 61);
    auto dn = random_vec(n, 62);
    for (std::size_t i = 0; i < n; i += 97) dn[i] = 0.0;
    const double qn = 1.75;
    std::vector<double> want(n), got = num;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = (dn[i] == 0.0) ? 0.0 : num[i] / (qn * dn[i]);
    }
    ops->cos_norm(qn, dn.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << ops->name << " i=" << i;
    }
  }
}

TEST(KernelParity, CosNormF32BitIdenticalExhaustive) {
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n : {0ul, 1ul, 4ul, 5ul, 7ul, 8ul, 17ul, 2053ul}) {
      for (const double qn : {0.0, 2.5}) {
        lsi::util::Rng rng(800 + n);
        std::vector<float> acc(n);
        for (auto& a : acc) a = static_cast<float>(rng.normal());
        auto dn = random_vec(n, 900 + n);
        for (std::size_t i = 0; i < n; i += 5) dn[i] = 0.0;
        std::vector<double> want(n), got(n, -1.0);
        for (std::size_t i = 0; i < n; ++i) {
          want[i] = (qn == 0.0 || dn[i] == 0.0)
                        ? 0.0
                        : static_cast<double>(acc[i]) / (qn * dn[i]);
        }
        ops->cos_norm_f32(qn, acc.data(), dn.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(want[i], got[i])
              << ops->name << " qn=" << qn << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelParity, DotWithinUlpBoundExhaustive) {
  for (const kern::Ops* ops : registered_kernels()) {
    for (std::size_t n = 0; n <= 17; ++n) {
      const auto x = random_vec(n, 700 + n);
      const auto y = random_vec(n, 800 + n);
      const double got = ops->dot(x.data(), y.data(), n);
      const double want = kahan_dot(x.data(), y.data(), n);
      ASSERT_NEAR(got, want, reduction_tol(x.data(), y.data(), n))
          << ops->name << " n=" << n;
    }
  }
}

TEST(KernelParity, DotFuzzLargeShapes) {
  lsi::util::Rng shape_rng(0xD07F77);
  for (int round = 0; round < 24; ++round) {
    const std::size_t n = 1 + shape_rng.uniform_index(4096);
    const auto x = random_vec(n, 900 + round);
    const auto y = random_vec(n, 1000 + round);
    const double want = kahan_dot(x.data(), y.data(), n);
    const double tol = reduction_tol(x.data(), y.data(), n);
    for (const kern::Ops* ops : registered_kernels()) {
      const double got = ops->dot(x.data(), y.data(), n);
      ASSERT_NEAR(got, want, tol) << ops->name << " n=" << n;
      // Determinism: the same kernel over the same input is exactly stable.
      ASSERT_EQ(got, ops->dot(x.data(), y.data(), n)) << ops->name;
    }
  }
}

TEST(KernelParity, EmptyAndDegenerateRangesAreZero) {
  const auto a = random_vec(16, 1);
  const auto b = random_vec(16, 2);
  for (const kern::Ops* ops : registered_kernels()) {
    EXPECT_EQ(ops->dot(a.data(), b.data(), 0), 0.0) << ops->name;
    // n == 0 elementwise calls must not touch the output.
    double y = 42.0;
    ops->axpy(2.0, a.data(), &y, 0);
    EXPECT_EQ(y, 42.0) << ops->name;
  }
}

// --- cross-kernel: elementwise results agree between kernels ----------------

TEST(KernelParity, ElementwiseAgreesAcrossKernels) {
  const auto kernels = registered_kernels();
  if (kernels.size() < 2) GTEST_SKIP() << "only one kernel registered";
  for (std::size_t n : {1ul, 4ul, 5ul, 16ul, 17ul, 777ul}) {
    const auto x = random_vec(n, 1500 + n);
    const auto xb = random_bf16(n, 1600 + n);
    const auto y0 = random_vec(n, 1700 + n);
    std::vector<std::vector<double>> y(kernels.size(), y0);
    std::vector<std::vector<float>> yf(kernels.size(),
                                       std::vector<float>(n, 0.25f));
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      kernels[ki]->axpy(-0.75, x.data(), y[ki].data(), n);
      kernels[ki]->axpy_bf16(1.5f, xb.data(), yf[ki].data(), n);
    }
    for (std::size_t ki = 1; ki < kernels.size(); ++ki) {
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(y[0][i], y[ki][i]) << kernels[ki]->name << " i=" << i;
        ASSERT_EQ(yf[0][i], yf[ki][i]) << kernels[ki]->name << " i=" << i;
      }
    }
  }
}

}  // namespace
