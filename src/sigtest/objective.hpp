// The test-quality objective of Section 3.1 (Eqs. 8-10).
//
// Given the spec sensitivity A_p (n x k) and the signature sensitivity
// A_s (m x k) of a candidate stimulus, the best linear map A with
// A_p ~= A * A_s is the minimum-norm least-squares solution
// a_i^T = a_p,i^T * pinv(A_s) (Eq. 9, via SVD). The per-spec error has two
// parts: the mapping residual sigma_p,i = ||a_p,i^T - a_i^T A_s|| (Eq. 8)
// and the amplified measurement noise sigma_m * ||a_i|| (Eq. 10). The GA
// minimizes F = (1/n) * sum_i sigma_i^2.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace stf::sigtest {

/// Objective evaluation with its per-spec breakdown.
struct ObjectiveBreakdown {
  stf::la::Matrix a;                ///< The mapping A (n x m).
  std::vector<double> sigma_p;      ///< Eq. 8 residual per spec.
  std::vector<double> noise_term;   ///< sigma_m * ||a_i|| per spec.
  std::vector<double> sigma;        ///< sqrt(sigma_p^2 + noise^2) per spec.
  double f = 0.0;                   ///< Mean of sigma_i^2 (minimized).
};

/// Evaluate Eqs. 8-10 for one (A_p, A_s, sigma_m) triple.
/// Throws std::invalid_argument on inconsistent dimensions.
ObjectiveBreakdown signature_objective(const stf::la::Matrix& a_p,
                                       const stf::la::Matrix& a_s,
                                       double sigma_m);

/// The same with pinv(A_s) already factored: as_pinv must be
/// stf::la::pinv(a_s) (k x m), or the bit-identical stf::la::pinv_lanes()
/// result through which the stimulus optimizer factors a generation's A_s
/// matrices. The three-argument form computes it and calls this one.
ObjectiveBreakdown signature_objective(const stf::la::Matrix& a_p,
                                       const stf::la::Matrix& a_s,
                                       const stf::la::Matrix& as_pinv,
                                       double sigma_m);

}  // namespace stf::sigtest
