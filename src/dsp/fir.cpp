#include "dsp/fir.hpp"

#include <cstddef>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::dsp {

namespace {

template <class T>
std::vector<T> convolve_same(const std::vector<double>& taps,
                             const std::vector<T>& x) {
  STF_REQUIRE(!taps.empty(), "fir_filter: empty taps");
  STF_REQUIRE(!x.empty(), "fir_filter: empty signal");
  const std::size_t delay = (taps.size() - 1) / 2;
  std::vector<T> y(x.size(), T{});
  for (std::size_t n = 0; n < x.size(); ++n) {
    T acc{};
    // y[n] = sum_k taps[k] * x[n + delay - k], zero-padded at the edges.
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(n + delay) -
                                 static_cast<std::ptrdiff_t>(k);
      if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(x.size())) continue;
      acc += taps[k] * x[static_cast<std::size_t>(idx)];
    }
    y[n] = acc;
  }
  return y;
}

}  // namespace

std::vector<double> fir_filter(const std::vector<double>& taps,
                               const std::vector<double>& x) {
  return convolve_same(taps, x);
}

std::vector<std::complex<double>> fir_filter(
    const std::vector<double>& taps,
    const std::vector<std::complex<double>>& x) {
  return convolve_same(taps, x);
}

}  // namespace stf::dsp
