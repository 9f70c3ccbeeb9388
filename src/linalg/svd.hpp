// Singular value decomposition via one-sided Jacobi rotations.
//
// The paper's test-optimization core (Section 3.1) computes the minimum-norm
// mapping A = A_p * pinv(A_s) through the SVD of the signature sensitivity
// matrix A_s (Eq. 9). One-sided Jacobi is compact, numerically robust, and
// delivers the high relative accuracy small singular values need when A_s is
// nearly rank deficient (which is exactly the situation a poor stimulus
// creates).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace stf::la {

/// Result of a full (thin) SVD: A = U * diag(s) * V^T.
struct SvdResult {
  Matrix u;               ///< m x r orthonormal columns (r = min(m, n)).
  std::vector<double> s;  ///< Singular values, descending, length r.
  Matrix v;               ///< n x r orthonormal columns.

  /// Number of singular values above tol * s_max (numerical rank).
  std::size_t rank(double tol = 1e-12) const;

  /// Condition number s_max / s_min (infinity if s_min == 0).
  double condition_number() const;
};

/// Compute the thin SVD of an arbitrary m x n matrix.
SvdResult svd(const Matrix& a);

/// Moore-Penrose pseudoinverse via SVD (Eq. 9 of the paper uses
/// A_s^+ = V * Sigma^+ * U^T). Singular values below rcond * s_max are
/// treated as zero.
Matrix pinv(const Matrix& a, double rcond = 1e-12);

/// Minimum-norm least-squares solution of A x = b via the SVD.
std::vector<double> svd_lstsq(const Matrix& a, const std::vector<double>& b,
                              double rcond = 1e-12);

namespace detail {

/// Sweeps the one-sided Jacobi SVD runs at most; la::pinv_lanes() shares
/// the cap so its lanes stop where svd() stops.
inline constexpr int kMaxJacobiSweeps = 60;

}  // namespace detail

}  // namespace stf::la
