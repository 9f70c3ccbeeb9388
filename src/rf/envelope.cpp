#include "rf/envelope.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::rf {

double envelope_power(const EnvelopeSignal& s) {
  STF_REQUIRE(!s.x.empty(), "envelope_power: empty signal");
  double p = 0.0;
  for (const auto& v : s.x) p += std::norm(v);
  return p / static_cast<double>(s.x.size());
}

}  // namespace stf::rf
