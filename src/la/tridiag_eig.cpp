#include "la/tridiag_eig.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace lsi::la {

namespace {

/// sqrt(f^2 + g^2), the norm of a Givens rotation's pair. The plain formula
/// costs about half of std::hypot; it runs only where f^2 + g^2 can neither
/// overflow nor lose precision to underflow, and std::hypot covers the rest.
double rotation_norm(double f, double g) {
  const double big = std::max(std::fabs(f), std::fabs(g));
  if (big >= 1e-150 && big <= 1e150) return std::sqrt(f * f + g * g);
  return std::hypot(f, g);
}

/// Columns a and b of q rotated by (c, s): q_a <- c q_a + s q_b,
/// q_b <- c q_b - s q_a.
void rotate_cols(DenseMatrix& q, std::size_t a, std::size_t b, double c,
                 double s) {
  auto qa = q.col(a);
  auto qb = q.col(b);
  for (std::size_t r = 0; r < qa.size(); ++r) {
    const double x = qa[r];
    const double y = qb[r];
    qa[r] = x * c + y * s;
    qb[r] = y * c - x * s;
  }
}

/// Implicit-shift QL on the tridiagonal (diag, off). Every rotation is
/// applied to the columns of `z`, which holds rows of the identity on entry:
/// all n rows accumulate the full eigenvector matrix in O(n^3), one row
/// accumulates just that row of it in O(n^2). Values come out ascending with
/// the columns of `z` permuted alongside.
TridiagEig tql(std::vector<double> diag, std::vector<double> off,
               DenseMatrix z) {
  const std::size_t n = diag.size();
  const std::size_t rows = z.rows();
  assert(off.size() + 1 == n || (n == 0 && off.empty()));
  assert(z.cols() == n);
  TridiagEig out;
  if (n == 0) return out;

  // e[i] couples rows i-1 and i, shifted one slot as in the classic QL code.
  std::vector<double> d = std::move(diag);
  std::vector<double> e(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = off[i - 1];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    for (;;) {
      // Find a small off-diagonal element to split at.
      std::size_t m = l;
      for (; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 + 2.3e-16 * dd) break;
      }
      if (m == l) break;
      if (++iterations > 50) {
        throw std::runtime_error("tridiag_eigen: QL failed to converge");
      }
      // Implicit shift from the 2x2 trailing block.
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      // g can approach 1e300 here, so the shift keeps std::hypot.
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool underflow = false;
      for (std::size_t i = m; i-- > l;) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = rotation_norm(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Rotation underflowed: deflate here and restart the sweep.
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        // Accumulate the rotation into the kept eigenvector rows.
        rotate_cols(z, i + 1, i, c, s);
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }

  // Sort ascending, permuting eigenvectors alongside.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  out.values.resize(n);
  out.vectors = DenseMatrix(rows, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    auto dst = out.vectors.col(j);
    auto src = z.col(order[j]);
    for (std::size_t i = 0; i < rows; ++i) dst[i] = src[i];
  }
  return out;
}

}  // namespace

SvdResult bidiagonal_svd(std::span<const double> diag,
                         std::span<const double> super) {
  const std::size_t n = diag.size();
  assert(super.size() + 1 == n || (n == 0 && super.empty()));
  SvdResult out;
  if (n == 0) return out;

  // e[i] couples columns i-1 and i (e[0] = 0), as in the classic SVD codes.
  std::vector<double> d(diag.begin(), diag.end());
  std::vector<double> e(n, 0.0);
  for (std::size_t i = 1; i < n; ++i) e[i] = super[i - 1];
  DenseMatrix u = DenseMatrix::identity(n);
  DenseMatrix v = DenseMatrix::identity(n);
  double bnorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    bnorm = std::max(bnorm, std::fabs(d[i]) + std::fabs(e[i]));
  }
  // Entries at or below eps * ||B|| are negligible: zeroing them perturbs
  // every singular value by at most that much.
  const double negligible = std::numeric_limits<double>::epsilon() * bnorm;

  for (std::size_t k = n; k-- > 0;) {
    for (int iterations = 0;; ++iterations) {
      // The unreduced block ending at k starts at l: e[l] is negligible (or
      // l = 0), or d[l-1] is, and then e[l] is chased out first.
      std::size_t l = k;
      bool zero_diagonal = false;
      for (; l > 0 && std::fabs(e[l]) > negligible; --l) {
        if (std::fabs(d[l - 1]) <= negligible) {
          zero_diagonal = true;
          break;
        }
      }
      if (zero_diagonal) {
        // Cancellation sweep: left rotations of rows l-1 and i move e[l]
        // along row l-1 until it leaves the block or becomes negligible.
        double c = 0.0;
        double s = 1.0;
        for (std::size_t i = l; i <= k; ++i) {
          const double f = s * e[i];
          e[i] *= c;
          if (std::fabs(f) <= negligible) break;
          const double g = d[i];
          const double h = rotation_norm(f, g);
          d[i] = h;
          c = g / h;
          s = -f / h;
          rotate_cols(u, l - 1, i, c, s);
        }
      }
      const double z = d[k];
      if (l == k) {
        // Converged: make the singular value nonnegative.
        if (z < 0.0) {
          d[k] = -z;
          for (double& x : v.col(k)) x = -x;
        }
        break;
      }
      if (iterations == 50) {
        throw std::runtime_error("bidiagonal_svd: QR failed to converge");
      }
      // Wilkinson shift: the eigenvalue of the trailing 2x2 of B^T B nearer
      // its last entry, folded into the first rotation.
      double x = d[l];
      double y = d[k - 1];
      double g = e[k - 1];
      double h = e[k];
      double f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2.0 * h * y);
      g = std::hypot(f, 1.0);  // f can approach 1e300, as in tql's shift
      f = ((x - z) * (x + z) + h * ((y / (f + std::copysign(g, f))) - h)) / x;
      // One implicit QR sweep chasing the bulge down the block: a right
      // rotation of columns j, j+1 (into V), then a left one (into U).
      double c = 1.0;
      double s = 1.0;
      for (std::size_t j = l; j < k; ++j) {
        const std::size_t i = j + 1;
        g = e[i];
        y = d[i];
        h = s * g;
        g = c * g;
        double r = rotation_norm(f, h);
        e[j] = r;
        c = f / r;
        s = h / r;
        f = x * c + g * s;
        g = g * c - x * s;
        h = y * s;
        y *= c;
        rotate_cols(v, j, i, c, s);
        r = rotation_norm(f, h);
        d[j] = r;
        if (r != 0.0) {  // else any rotation will do
          c = f / r;
          s = h / r;
        }
        f = c * g + s * y;
        x = c * y - s * g;
        rotate_cols(u, j, i, c, s);
      }
      e[l] = 0.0;
      e[k] = f;
      d[k] = x;
    }
  }

  out.u = std::move(u);
  out.s = std::move(d);
  out.v = std::move(v);
  sort_descending(out);
  normalize_signs(out);
  return out;
}

TridiagEig tridiag_eigen(std::vector<double> diag, std::vector<double> off) {
  const std::size_t n = diag.size();
  return tql(std::move(diag), std::move(off), DenseMatrix::identity(n));
}

TridiagEig tridiag_eigen_last_row(std::vector<double> diag,
                                  std::vector<double> off) {
  const std::size_t n = diag.size();
  DenseMatrix last(1, n);
  if (n > 0) last(0, n - 1) = 1.0;
  return tql(std::move(diag), std::move(off), std::move(last));
}

TridiagEig symmetric_eigen(const DenseMatrix& a) {
  assert(a.rows() == a.cols());
  const index_t n = a.rows();
  if (n == 0) return {};

  // Householder tridiagonalization, accumulating the transform in q.
  DenseMatrix work = a;
  DenseMatrix q = DenseMatrix::identity(n);
  std::vector<double> d(n), e(n > 1 ? n - 1 : 0);

  for (index_t k = 0; k + 2 < n + 1 && n >= 2 && k < n - 2 + 1; ++k) {
    if (k >= n - 1) break;
    // Annihilate work(k+2.., k).
    Vector v(n - k - 1);
    for (index_t i = k + 1; i < n; ++i) v[i - k - 1] = work(i, k);
    const double alpha = norm2(v);
    if (alpha != 0.0 && n - k - 1 > 1) {
      const double sign = v[0] >= 0.0 ? 1.0 : -1.0;
      v[0] += sign * alpha;
      const double vn = norm2(v);
      if (vn > 0.0) {
        scale(v, 1.0 / vn);
        // work <- H work H with H = I - 2 v v^T acting on rows/cols k+1..
        // p = 2 * work * v restricted to the trailing block
        Vector p(n - k - 1, 0.0);
        for (index_t i = k + 1; i < n; ++i) {
          double acc = 0.0;
          for (index_t j = k + 1; j < n; ++j) {
            acc += work(i, j) * v[j - k - 1];
          }
          p[i - k - 1] = 2.0 * acc;
        }
        const double vp = dot(std::span<const double>(v),
                              std::span<const double>(p));
        // w = p - (v^T p) v
        for (index_t i = 0; i < p.size(); ++i) p[i] -= vp * v[i];
        for (index_t i = k + 1; i < n; ++i) {
          for (index_t j = k + 1; j < n; ++j) {
            work(i, j) -= v[i - k - 1] * p[j - k - 1] +
                          p[i - k - 1] * v[j - k - 1];
          }
        }
        // Update the k-th column/row border.
        Vector border(n - k - 1);
        for (index_t i = k + 1; i < n; ++i) border[i - k - 1] = work(i, k);
        const double bp = 2.0 * dot(std::span<const double>(v),
                                    std::span<const double>(border));
        for (index_t i = k + 1; i < n; ++i) {
          work(i, k) -= bp * v[i - k - 1];
          work(k, i) = work(i, k);
        }
        // Accumulate into q: q <- q H.
        for (index_t r = 0; r < n; ++r) {
          double acc = 0.0;
          for (index_t i = k + 1; i < n; ++i) acc += q(r, i) * v[i - k - 1];
          acc *= 2.0;
          for (index_t i = k + 1; i < n; ++i) q(r, i) -= acc * v[i - k - 1];
        }
      }
    }
  }
  for (index_t i = 0; i < n; ++i) d[i] = work(i, i);
  for (index_t i = 0; i + 1 < n; ++i) e[i] = work(i + 1, i);

  TridiagEig tri = tridiag_eigen(std::move(d), std::move(e));
  tri.vectors = multiply(q, tri.vectors);
  return tri;
}

}  // namespace lsi::la
