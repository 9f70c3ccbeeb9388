#include "stats/sampling.hpp"

namespace stf::stats {

std::vector<double> UniformBox::sample(Rng& rng) const {
  std::vector<double> x(nominal.size());
  for (std::size_t i = 0; i < nominal.size(); ++i)
    x[i] = rng.uniform(lo(i), hi(i));
  return x;
}

}  // namespace stf::stats
