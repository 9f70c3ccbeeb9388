#include "dsp/window.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::dsp {

std::vector<double> make_window(WindowType type, std::size_t n) {
  STF_REQUIRE(n != 0, "make_window: n must be > 0");
  std::vector<double> w(n, 1.0);
  const double two_pi = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    switch (type) {
      case WindowType::kRect:
        w[i] = 1.0;
        break;
      case WindowType::kHann:
        w[i] = 0.5 - 0.5 * std::cos(two_pi * t);
        break;
      case WindowType::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(two_pi * t);
        break;
      case WindowType::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(two_pi * t) +
               0.08 * std::cos(2.0 * two_pi * t);
        break;
      case WindowType::kFlatTop:
        // SRS flat-top coefficients; near-zero amplitude error for
        // off-bin tones.
        w[i] = 0.21557895 - 0.41663158 * std::cos(two_pi * t) +
               0.277263158 * std::cos(2.0 * two_pi * t) -
               0.083578947 * std::cos(3.0 * two_pi * t) +
               0.006947368 * std::cos(4.0 * two_pi * t);
        break;
    }
  }
  return w;
}

double window_gain(const std::vector<double>& w) {
  double s = 0.0;
  for (double x : w) s += x;
  return s;
}

}  // namespace stf::dsp
