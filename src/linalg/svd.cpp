#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::la {

std::size_t SvdResult::rank(double tol) const {
  if (s.empty()) return 0;
  const double cutoff = tol * s.front();
  std::size_t r = 0;
  for (double sv : s)
    if (sv > cutoff) ++r;
  return r;
}

double SvdResult::condition_number() const {
  if (s.empty() || s.back() == 0.0)
    return std::numeric_limits<double>::infinity();
  return s.front() / s.back();
}

namespace {

// One-sided Jacobi on a tall (m >= n) matrix: rotate column pairs of W until
// all pairs are orthogonal; accumulate rotations into V.
SvdResult svd_tall(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix w = a;
  Matrix v = Matrix::identity(n);

  const double eps = std::numeric_limits<double>::epsilon();
  for (int sweep = 0; sweep < detail::kMaxJacobiSweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Gram entries for the (p, q) column pair.
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p), wq = w(i, q);
          app += wp * wp;
          aqq += wq * wq;
          apq += wp * wq;
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        converged = false;

        // Jacobi rotation that zeroes the off-diagonal Gram entry.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p), vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  // Singular values are the column norms of the rotated W.
  std::vector<double> sv(n);
  Matrix u(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += w(i, j) * w(i, j);
    norm = std::sqrt(norm);
    sv[j] = norm;
    if (norm > 0.0) {
      for (std::size_t i = 0; i < m; ++i) u(i, j) = w(i, j) / norm;
    } else {
      // Zero column: leave U column zero; it corresponds to a zero singular
      // value and is never used by pinv/lstsq.
    }
  }

  // Sort descending by singular value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return sv[i] > sv[j]; });

  SvdResult out;
  out.s.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.s[j] = sv[src];
    for (std::size_t i = 0; i < m; ++i) out.u(i, j) = u(i, src);
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  return out;
}

}  // namespace

SvdResult svd(const Matrix& a) {
  STF_REQUIRE(!a.empty(), "svd: empty matrix");
  STF_ASSERT_FINITE("svd: non-finite input matrix", a.data(), a.size());
  if (a.rows() >= a.cols()) return svd_tall(a);
  // Wide matrix: factor the transpose and swap U <-> V.
  SvdResult t = svd_tall(a.transposed());
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.s = std::move(t.s);
  return out;
}

Matrix pinv(const Matrix& a, double rcond) {
  STF_REQUIRE(std::isfinite(rcond) && rcond >= 0.0,
              "pinv: rcond must be finite and >= 0");
  const SvdResult d = svd(a);
  const double cutoff = d.s.empty() ? 0.0 : rcond * d.s.front();
  // pinv(A) = V * Sigma^+ * U^T, dropping singular values <= cutoff.
  Matrix vs = d.v;  // n x r, columns scaled by 1/s.
  for (std::size_t j = 0; j < d.s.size(); ++j) {
    const double inv = d.s[j] > cutoff ? 1.0 / d.s[j] : 0.0;
    for (std::size_t i = 0; i < vs.rows(); ++i) vs(i, j) *= inv;
  }
  return vs * d.u.transposed();
}

std::vector<double> svd_lstsq(const Matrix& a, const std::vector<double>& b,
                              double rcond) {
  STF_REQUIRE(b.size() == a.rows(),
              "svd_lstsq: rhs length must match matrix rows");
  const SvdResult d = svd(a);
  const double cutoff = d.s.empty() ? 0.0 : rcond * d.s.front();
  // x = V * Sigma^+ * U^T b.
  std::vector<double> utb(d.s.size(), 0.0);
  for (std::size_t j = 0; j < d.s.size(); ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) acc += d.u(i, j) * b[i];
    utb[j] = d.s[j] > cutoff ? acc / d.s[j] : 0.0;
  }
  std::vector<double> x(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.cols(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d.s.size(); ++j) acc += d.v(i, j) * utb[j];
    x[i] = acc;
  }
  return x;
}

}  // namespace stf::la
