// Monte Carlo sampling of process-parameter space.
//
// The paper draws device instances with every statistical parameter
// uniformly distributed within +/-20% of nominal (Section 4.1). These
// helpers generate such populations. sample_matrix and the Latin hypercube
// design have no caller outside their own tests.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "stats/rng.hpp"

namespace stf::stats {

/// Uniform box distribution: each dimension i is drawn in
/// [nominal[i]*(1-frac), nominal[i]*(1+frac)].
struct UniformBox {
  std::vector<double> nominal;
  double frac = 0.2;  ///< Relative half-width (paper uses 20%).

  /// One random draw.
  std::vector<double> sample(Rng& rng) const;

  /// n draws as rows of an n x k matrix.
  la::Matrix sample_matrix(std::size_t n, Rng& rng) const;

  /// Lower corner of the box for dimension i.
  double lo(std::size_t i) const { return nominal[i] * (1.0 - frac); }
  /// Upper corner of the box for dimension i.
  double hi(std::size_t i) const { return nominal[i] * (1.0 + frac); }
};

/// Latin hypercube design of n samples over the box: each dimension is
/// stratified into n equal bins and each bin is hit exactly once.
la::Matrix latin_hypercube(const UniformBox& box, std::size_t n, Rng& rng);

}  // namespace stf::stats
