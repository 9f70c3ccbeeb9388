#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"

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

double amplitude_to_dbm(double amplitude, double r_ohms) {
  STF_REQUIRE(!(amplitude <= 0.0 || r_ohms <= 0.0),
              "amplitude_to_dbm: non-positive input");
  const double p_watts = amplitude * amplitude / (2.0 * r_ohms);
  return 10.0 * std::log10(p_watts / 1e-3);
}

double dbm_to_amplitude(double dbm, double r_ohms) {
  const double p_watts = 1e-3 * std::pow(10.0, dbm / 10.0);
  return std::sqrt(2.0 * r_ohms * p_watts);
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

std::vector<double> welch_psd(const std::vector<double>& x, double fs,
                              std::size_t segment, double overlap,
                              WindowType window) {
  STF_REQUIRE(!(segment < 2 || x.size() < segment),
              "welch_psd: signal shorter than segment");
  STF_REQUIRE(fs > 0.0, "welch_psd: fs must be > 0");
  STF_REQUIRE(!(overlap < 0.0 || overlap >= 1.0),
              "welch_psd: overlap must be in [0, 1)");

  const auto w = make_window(window, segment);
  double w_power = 0.0;  // sum of squared window coefficients
  for (double v : w) w_power += v * v;

  const auto hop = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(segment) * (1.0 - overlap)));
  std::vector<double> psd(segment / 2 + 1, 0.0);
  std::size_t n_segments = 0;
  for (std::size_t start = 0; start + segment <= x.size(); start += hop) {
    std::vector<cplx> seg(segment);
    for (std::size_t i = 0; i < segment; ++i)
      seg[i] = cplx(x[start + i] * w[i], 0.0);
    const auto spec = fft(seg);
    for (std::size_t k = 0; k < psd.size(); ++k) {
      // One-sided scaling: double everything except DC and Nyquist.
      const double scale =
          (k == 0 || (segment % 2 == 0 && k == segment / 2)) ? 1.0 : 2.0;
      psd[k] += scale * std::norm(spec[k]) / (fs * w_power);
    }
    ++n_segments;
  }
  for (double& v : psd) v /= static_cast<double>(n_segments);
  return psd;
}

}  // namespace stf::dsp
