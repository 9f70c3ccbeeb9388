#include "dsp/spectrum.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::dsp {

namespace {

// Windowed complex correlation sum_n w[n] x[n] exp(-j 2 pi f n / fs).
template <class T>
std::complex<double> windowed_correlation(const std::vector<T>& x, double freq,
                                          double fs, WindowType window) {
  STF_REQUIRE(!x.empty(), "tone_amplitude: empty signal");
  const auto w = make_window(window, x.size());
  const double dphi = -2.0 * std::numbers::pi * freq / fs;
  std::complex<double> acc{};
  // Direct rotation; capture lengths here are small enough that the
  // numerically-simple form beats a Goertzel restated for windowed data.
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double ang = dphi * static_cast<double>(n);
    acc += std::complex<double>(std::cos(ang), std::sin(ang)) * w[n] * x[n];
  }
  return acc;
}

}  // namespace

double tone_amplitude(const std::vector<double>& x, double freq, double fs,
                      WindowType window) {
  const auto acc = windowed_correlation(x, freq, fs, window);
  const double wsum = window_gain(make_window(window, x.size()));
  // Real cosine splits power across +/- freq: factor 2 recovers the peak
  // amplitude (exact at DC only without the factor, but tones here are
  // always far from DC relative to the window bandwidth).
  return 2.0 * std::abs(acc) / wsum;
}

double tone_amplitude(const std::vector<std::complex<double>>& x, double freq,
                      double fs, WindowType window) {
  const auto acc = windowed_correlation(x, freq, fs, window);
  const double wsum = window_gain(make_window(window, x.size()));
  return std::abs(acc) / wsum;
}

double signal_power(const std::vector<double>& x) {
  STF_REQUIRE(!x.empty(), "signal_power: empty signal");
  double s = 0.0;
  for (double v : x) s += v * v;
  return s / static_cast<double>(x.size());
}

double signal_power(const std::vector<std::complex<double>>& x) {
  STF_REQUIRE(!x.empty(), "signal_power: empty signal");
  double s = 0.0;
  for (const auto& v : x) s += std::norm(v);
  return s / static_cast<double>(x.size());
}

}  // namespace stf::dsp
