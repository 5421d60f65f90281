#pragma once
// Runtime-dispatched SIMD microkernels for the Eq. 6 hot path
// (docs/KERNELS.md). One process-global Ops table is selected at first use —
// CPUID by default, overridable with the LSI_KERNEL environment variable or
// kern::force() (the CLI's --kernel flag) — and every hot loop that routes
// through it (the batched score sweep, the Lanczos reorthogonalization) calls
// through plain function pointers. The Eq. 6 projection is not one of them:
// it gathers a query's few nonzero rows of U_k in a scalar loop
// (core::project_sparse), so projected queries are kernel-invariant.
//
// Precision policy (enforced by tests/la/kernel_parity_test.cpp):
//
//   * elementwise kernels (axpy, axpy4, axpy_bf16, axpy4_bf16) perform one
//     multiply and one add per element in a fixed order, never fused, so
//     every kernel produces BIT-IDENTICAL results. The batched score sweep
//     is built only from these, which is why batched-vs-single,
//     exact-vs-full-probe, concurrent and replicated parity hold under any
//     kernel.
//   * the reduction kernel (dot) may reassociate the sum (wider
//     accumulators, FMA), so results differ across kernels within a small
//     ULP bound — but each kernel is DETERMINISTIC: for a given input length
//     the accumulation tree is fixed.
//
// Scalar norms (la::norm2, the doc-norm caches) intentionally stay outside
// this table: cached norms must be identical no matter which kernel is
// active, so a snapshot prewarmed under one kernel serves any other.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace lsi::la::kern {

/// One registered kernel implementation. All pointers are non-null.
struct Ops {
  const char* name;

  // --- reduction kernel (reassociation allowed, ULP-bounded) ---
  /// sum_i x[i] * y[i].
  double (*dot)(const double* x, const double* y, std::size_t n);

  // --- elementwise kernels (fixed order, bit-identical across kernels) ---
  /// y[i] += a * x[i].
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// Four independent accumulation streams sharing the x loads:
  /// yt[i] += a4[t] * x[i]. Bit-identical to four axpy calls.
  void (*axpy4)(const double* a4, const double* x, double* y0, double* y1,
                double* y2, double* y3, std::size_t n);
  /// fp32 accumulation over a bf16 vector: y[i] += a * decode(x[i]).
  void (*axpy_bf16)(float a, const std::uint16_t* x, float* y, std::size_t n);
  /// Four fp32 streams sharing the bf16 decode of x.
  void (*axpy4_bf16)(const float* a4, const std::uint16_t* x, float* y0,
                     float* y1, float* y2, float* y3, std::size_t n);

  // --- correctly-rounded kernels (bit-identical across kernels) ---
  // Multiplication and division are correctly rounded in both scalar and
  // packed form, so these vectorize without any precision contract caveat.
  /// In-place cosine normalization with la::cosine's zero-norm guard:
  /// y[i] = (qn == 0 || dn[i] == 0) ? 0 : y[i] / (qn * dn[i]).
  void (*cos_norm)(double qn, const double* dn, double* y, std::size_t n);
  /// fp32-accumulator variant (the bf16 sweep): widen then normalize,
  /// out[i] = (qn == 0 || dn[i] == 0) ? 0 : double(acc[i]) / (qn * dn[i]).
  void (*cos_norm_f32)(double qn, const float* acc, const double* dn,
                       double* out, std::size_t n);
};

/// The scalar fallback; bit-identical to the pre-dispatch code.
const Ops& portable() noexcept;

/// The AVX2/FMA kernel, or null when not compiled into this binary
/// (non-x86 targets). Callers must additionally check cpu_has_avx2().
const Ops* avx2() noexcept;

/// True when the running CPU supports AVX2 and FMA.
bool cpu_has_avx2() noexcept;

/// Outcome of resolving a kernel name: `ops` is null for an unknown name;
/// `fell_back` marks an explicit "avx2" request served by portable because
/// the ISA is absent (graceful fallback, not an error).
struct Selection {
  const Ops* ops = nullptr;
  bool fell_back = false;
};

/// Pure name resolution ("portable" | "avx2" | "auto") against an explicit
/// CPU capability — testable without mutating process state.
Selection select(std::string_view name, bool cpu_ok) noexcept;

/// The exact LSI_KERNEL startup semantics as a pure function of the
/// environment value (null/empty means unset -> "auto"; unknown names must
/// not brick the process, they also resolve as "auto"). active()'s first
/// resolution is resolve_env(getenv("LSI_KERNEL"), cpu_has_avx2()).
const Ops& resolve_env(const char* env_value, bool cpu_ok) noexcept;

/// The process-active kernel. Resolved once on first use: LSI_KERNEL when
/// set (unknown values fall back to "auto"), else AVX2 when the CPU has it,
/// else portable.
const Ops& active() noexcept;

/// Forces the active kernel ("portable" | "avx2" | "auto"); returns false
/// (and changes nothing) for an unknown name. "avx2" without CPU support
/// falls back to portable. Not meant to race queries: call at startup or
/// from single-threaded test setup.
bool force(std::string_view name) noexcept;

// --- bf16 encode/decode -----------------------------------------------------
// bf16 is the top 16 bits of an IEEE fp32: same exponent range, truncated
// mantissa. Encoding rounds to nearest-even; decoding is exact (shift).

inline std::uint16_t bf16_from_f32(float v) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  if ((bits & 0x7F800000u) == 0x7F800000u) {
    // Inf stays Inf; NaN keeps a mantissa bit so it cannot round to Inf.
    std::uint16_t h = static_cast<std::uint16_t>(bits >> 16);
    if ((bits & 0x007FFFFFu) != 0) h |= 0x0040u;
    return h;
  }
  // Round to nearest, ties to even, on the 16 dropped bits.
  const std::uint32_t rounded = bits + 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(rounded >> 16);
}

/// Canonical double -> bf16 path: round to fp32 first, then to bf16. Every
/// encoder in this library (store build, io, on-the-fly re-rank fallback)
/// uses this exact two-step rounding so encoded values always agree.
inline std::uint16_t bf16_from_f64(double v) noexcept {
  return bf16_from_f32(static_cast<float>(v));
}

inline float bf16_to_f32(std::uint16_t h) noexcept {
  const std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float v;
  std::memcpy(&v, &bits, sizeof bits);
  return v;
}

}  // namespace lsi::la::kern
