#include "linalg/qr.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::la {

QrDecomposition::QrDecomposition(const Matrix& a) : qr_(a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  STF_REQUIRE(m >= n, "QrDecomposition: requires rows >= cols");
  STF_ASSERT_FINITE("QrDecomposition: non-finite input matrix", a.data(),
                    a.size());
  beta_.assign(n, 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder vector for column k below the diagonal.
    double normx = 0.0;
    for (std::size_t i = k; i < m; ++i) normx += qr_(i, k) * qr_(i, k);
    normx = std::sqrt(normx);
    if (normx == 0.0) {
      beta_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -normx : normx;
    const double v0 = qr_(k, k) - alpha;
    // v = [v0, A(k+1..m-1, k)]; normalize so v[0] = 1.
    qr_(k, k) = alpha;  // R diagonal entry.
    for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= v0;
    beta_[k] = -v0 / alpha;  // beta = 2 / (v^T v) with v[0] = 1 scaling.

    // Apply H_k = I - beta v v^T to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = qr_(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
      s *= beta_[k];
      qr_(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
    }
  }
}

Matrix QrDecomposition::r() const {
  const std::size_t n = qr_.cols();
  Matrix rm(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) rm(i, j) = qr_(i, j);
  return rm;
}

Matrix QrDecomposition::q_thin() const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  // Accumulate Q by applying the Householder reflectors to I (thin).
  Matrix q(m, n);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (beta_[k] == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double s = q(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * q(i, j);
      s *= beta_[k];
      q(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) q(i, j) -= s * qr_(i, k);
    }
  }
  return q;
}

bool QrDecomposition::full_rank(double tol) const {
  const std::size_t n = qr_.cols();
  double dmax = 0.0;
  for (std::size_t j = 0; j < n; ++j) dmax = std::max(dmax, std::abs(qr_(j, j)));
  if (dmax == 0.0) return false;
  for (std::size_t j = 0; j < n; ++j)
    if (std::abs(qr_(j, j)) <= tol * dmax) return false;
  return true;
}

std::vector<double> QrDecomposition::solve(const std::vector<double>& b) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  STF_REQUIRE(b.size() == m, "QrDecomposition::solve: size mismatch");
  if (!full_rank())
    throw std::runtime_error("QrDecomposition::solve: rank-deficient matrix");

  // y = Q^T b by applying reflectors in order.
  std::vector<double> y = b;
  for (std::size_t k = 0; k < n; ++k) {
    if (beta_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * y[i];
    s *= beta_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * qr_(i, k);
  }

  // Back-substitute R x = y[0..n-1].
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= qr_(ii, j) * x[j];
    x[ii] = s / qr_(ii, ii);
  }
  return x;
}

}  // namespace stf::la
