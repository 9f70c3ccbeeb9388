#include "dsp/resample.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace stf::dsp {

namespace {

// Output sample i of a linear resample: the two input samples around its
// time and the weight of the later one.
struct Tap {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

inline Tap tap_at(std::size_t i, std::size_t n_in, double fs_in,
                  double fs_out) {
  const double t = static_cast<double>(i) / fs_out;
  const double pos = t * fs_in;
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n_in - 1), pos - static_cast<double>(lo)};
}

template <class T>
void resample_into_impl(const T* x, std::size_t n_in, double fs_in,
                        double fs_out, T* y, std::size_t n_out) {
  for (std::size_t i = 0; i < n_out; ++i) {
    const Tap p = tap_at(i, n_in, fs_in, fs_out);
    y[i] = x[p.lo] * (1.0 - p.frac) + x[p.hi] * p.frac;
  }
}

template <class T>
std::vector<T> resample_impl(const std::vector<T>& x, double fs_in,
                             double fs_out) {
  std::vector<T> y(resample_length(x.size(), fs_in, fs_out));
  resample_into_impl(x.data(), x.size(), fs_in, fs_out, y.data(), y.size());
  return y;
}

}  // namespace

std::size_t resample_length(std::size_t n_in, double fs_in, double fs_out) {
  STF_REQUIRE(n_in >= 2, "resample_linear: need >= 2 samples");
  STF_REQUIRE(!(fs_in <= 0.0 || fs_out <= 0.0),
              "resample_linear: rates must be > 0");
  const double duration = static_cast<double>(n_in - 1) / fs_in;
  return static_cast<std::size_t>(std::floor(duration * fs_out)) + 1;
}

std::vector<double> resample_linear(const std::vector<double>& x, double fs_in,
                                    double fs_out) {
  return resample_impl(x, fs_in, fs_out);
}

void resample_linear_into(std::span<const double> x, double fs_in,
                          double fs_out, std::span<double> out) {
  STF_REQUIRE(out.size() == resample_length(x.size(), fs_in, fs_out),
              "resample_linear_into: output span has the wrong length");
  resample_into_impl(x.data(), x.size(), fs_in, fs_out, out.data(),
                     out.size());
}

void resample_interleaved_into(std::span<const double> x,
                               std::size_t n_channels, double fs_in,
                               double fs_out, std::span<double> out) {
  STF_REQUIRE(n_channels != 0,
              "resample_interleaved_into: n_channels must be > 0");
  STF_REQUIRE(x.size() % n_channels == 0 && out.size() % n_channels == 0,
              "resample_interleaved_into: buffer lengths must be multiples "
              "of n_channels");
  const std::size_t n_in = x.size() / n_channels;
  STF_REQUIRE(out.size() / n_channels == resample_length(n_in, fs_in, fs_out),
              "resample_interleaved_into: output span has the wrong length");
  // Every channel interpolates at the same taps with the single-channel
  // arithmetic.
  for (std::size_t i = 0; i < out.size() / n_channels; ++i) {
    const Tap p = tap_at(i, n_in, fs_in, fs_out);
    const double* lo = x.data() + p.lo * n_channels;
    const double* hi = x.data() + p.hi * n_channels;
    double* y = out.data() + i * n_channels;
    for (std::size_t c = 0; c < n_channels; ++c)
      y[c] = lo[c] * (1.0 - p.frac) + hi[c] * p.frac;
  }
}

std::vector<std::complex<double>> resample_linear(
    const std::vector<std::complex<double>>& x, double fs_in, double fs_out) {
  return resample_impl(x, fs_in, fs_out);
}

}  // namespace stf::dsp
