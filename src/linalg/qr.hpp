// Householder QR factorization and its least-squares solve.
//
// Used for overdetermined regression fits where the normal equations would
// square the condition number.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace stf::la {

/// Householder QR factorization A = Q R for A with rows >= cols.
class QrDecomposition {
 public:
  /// Factorize an m x n matrix (m >= n). Throws std::invalid_argument
  /// otherwise.
  explicit QrDecomposition(const Matrix& a);

  /// Thin orthonormal factor Q (m x n).
  Matrix q_thin() const;

  /// Upper-triangular factor R (n x n).
  Matrix r() const;

  /// Least-squares solution of min ||A x - b||_2.
  /// Throws std::runtime_error if A is rank deficient.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// True if all diagonal entries of R exceed tol * max|R_jj|.
  bool full_rank(double tol = 1e-12) const;

 private:
  // Householder vectors stored below the diagonal of qr_, R on and above.
  Matrix qr_;
  std::vector<double> beta_;  // Householder scaling factors.
};

}  // namespace stf::la
