// Portable kernel: the scalar code every hot path ran before dispatch
// existed, moved here verbatim so its results stay bit-identical to the
// pre-kernel library.

#include "la/kernels.hpp"

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
    "portable",         dot_portable,        axpy_portable,
    axpy4_portable,     axpy_bf16_portable,  axpy4_bf16_portable,
    cos_norm_portable,  cos_norm_f32_portable,
};

}  // namespace

const Ops& portable() noexcept { return kPortableOps; }

}  // namespace lsi::la::kern
