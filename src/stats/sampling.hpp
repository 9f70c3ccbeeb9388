// Monte Carlo sampling of process-parameter space.
//
// The paper draws device instances with every statistical parameter
// uniformly distributed within +/-20% of nominal (Section 4.1). This box
// draws such instances.
#pragma once

#include <cstddef>
#include <vector>

#include "stats/rng.hpp"

namespace stf::stats {

/// Uniform box distribution: each dimension i is drawn in
/// [nominal[i]*(1-frac), nominal[i]*(1+frac)].
struct UniformBox {
  std::vector<double> nominal;
  double frac = 0.2;  ///< Relative half-width (paper uses 20%).

  /// One random draw.
  std::vector<double> sample(Rng& rng) const;

  /// Lower corner of the box for dimension i.
  double lo(std::size_t i) const { return nominal[i] * (1.0 - frac); }
  /// Upper corner of the box for dimension i.
  double hi(std::size_t i) const { return nominal[i] * (1.0 + frac); }
};

}  // namespace stf::stats
