#include "dsp/iir.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/simd.hpp"

namespace stf::dsp {

namespace simd = stf::core::simd;

std::complex<double> Biquad::response(double freq, double fs) const {
  const double w = 2.0 * std::numbers::pi * freq / fs;
  const std::complex<double> z1(std::cos(-w), std::sin(-w));
  const std::complex<double> z2 = z1 * z1;
  return (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2);
}

BiquadCascade::BiquadCascade(std::vector<Biquad> sections)
    : sections_(std::move(sections)) {
  STF_REQUIRE(!sections_.empty(), "BiquadCascade: no sections");
}

namespace {

// Direct form II transposed, one-shot over the whole buffer, for G
// consecutive sections in one pass over time: at each sample, section k
// filters section k-1's output of the same instant. A section's recurrence
// depends only on its own state, so the G recurrences overlap in the
// pipeline instead of running back to back, while every section performs
// the reference operations below in the reference order -- each output is
// bit-identical to filtering one whole section at a time. The coefficients
// are copied to locals so stores to x cannot alias them.
template <std::size_t G>
void run_sections_fused(const Biquad* sections, double* x, std::size_t n) {
  Biquad s[G];
  for (std::size_t k = 0; k < G; ++k) s[k] = sections[k];
  double z1[G] = {};
  double z2[G] = {};
  for (std::size_t i = 0; i < n; ++i) {
    double in = x[i];
    for (std::size_t k = 0; k < G; ++k) {
      const double out = s[k].b0 * in + z1[k];
      z1[k] = s[k].b1 * in - s[k].a1 * out + z2[k];
      z2[k] = s[k].b2 * in - s[k].a2 * out;
      in = out;
    }
    x[i] = in;
  }
}

// The whole cascade, up to four sections per pass: the board's
// Butterworth orders through 8 take a single pass over the signal.
void run_cascade_fused(const std::vector<Biquad>& sections, double* x,
                       std::size_t n) {
  const Biquad* s = sections.data();
  std::size_t left = sections.size();
  for (; left >= 4; left -= 4, s += 4) run_sections_fused<4>(s, x, n);
  switch (left) {
    case 3: run_sections_fused<3>(s, x, n); break;
    case 2: run_sections_fused<2>(s, x, n); break;
    case 1: run_sections_fused<1>(s, x, n); break;
    default: break;
  }
}

// Channel-interleaved cascade: data[t * k + c] is channel c at time t.
// Channels are independent recurrences, so lane-sized channel groups step
// through time together; within each lane the operation order matches the
// scalar reference exactly (products, then the same sum/difference chain,
// no FMA -- this TU compiles with -ffp-contract=off).
void run_interleaved(const std::vector<Biquad>& sections, double* x,
                     std::size_t k, std::size_t n) {
  std::size_t c0 = 0;
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      for (; c0 + simd::kLanes <= k; c0 += simd::kLanes) {
        for (const Biquad& s : sections) {
          const simd::VecD b0 = simd::broadcast(s.b0);
          const simd::VecD b1 = simd::broadcast(s.b1);
          const simd::VecD b2 = simd::broadcast(s.b2);
          const simd::VecD a1 = simd::broadcast(s.a1);
          const simd::VecD a2 = simd::broadcast(s.a2);
          simd::VecD z1 = simd::broadcast(0.0);
          simd::VecD z2 = simd::broadcast(0.0);
          double* p = x + c0;
          for (std::size_t t = 0; t < n; ++t, p += k) {
            const simd::VecD in = simd::load(p);
            const simd::VecD out = b0 * in + z1;
            z1 = (b1 * in - a1 * out) + z2;
            z2 = b2 * in - a2 * out;
            simd::store(p, out);
          }
        }
      }
    }
  }
  // Remaining channels (all of them on the scalar backend or with the
  // runtime switch off): the reference recurrence, one channel at a time.
  for (; c0 < k; ++c0) {
    for (const Biquad& s : sections) {
      double z1 = 0.0;
      double z2 = 0.0;
      double* p = x + c0;
      for (std::size_t t = 0; t < n; ++t, p += k) {
        const double in = *p;
        const double out = s.b0 * in + z1;
        z1 = s.b1 * in - s.a1 * out + z2;
        z2 = s.b2 * in - s.a2 * out;
        *p = out;
      }
    }
  }
}

}  // namespace

std::vector<double> BiquadCascade::filter(const std::vector<double>& x) const {
  std::vector<double> y = x;
  filter_inplace(y);
  return y;
}

std::vector<std::complex<double>> BiquadCascade::filter(
    const std::vector<std::complex<double>>& x) const {
  std::vector<std::complex<double>> y = x;
  filter_inplace(y);
  return y;
}

void BiquadCascade::filter_inplace(std::span<double> x) const {
  run_cascade_fused(sections_, x.data(), x.size());
}

void BiquadCascade::filter_inplace(
    std::span<std::complex<double>> x) const {
  // std::complex<double> is layout-compatible with double[2], and every
  // scalar cascade operation on complex values is component-wise, so the
  // envelope is exactly two interleaved real channels (I, Q).
  run_interleaved(sections_, reinterpret_cast<double*>(x.data()), 2,
                  x.size());
}

void BiquadCascade::filter_interleaved(std::span<double> x,
                                       std::size_t n_channels) const {
  STF_REQUIRE(n_channels != 0,
              "BiquadCascade::filter_interleaved: n_channels must be > 0");
  STF_REQUIRE(x.size() % n_channels == 0,
              "BiquadCascade::filter_interleaved: buffer length must be a "
              "multiple of n_channels");
  run_interleaved(sections_, x.data(), n_channels, x.size() / n_channels);
}

std::complex<double> BiquadCascade::response(double freq, double fs) const {
  std::complex<double> h(1.0, 0.0);
  for (const Biquad& s : sections_) h *= s.response(freq, fs);
  return h;
}

BiquadCascade butterworth_lowpass(std::size_t order, double cutoff_hz,
                                  double fs) {
  STF_REQUIRE(order != 0, "butterworth_lowpass: order 0");
  STF_REQUIRE(!(cutoff_hz <= 0.0 || cutoff_hz >= fs / 2.0),
              "butterworth_lowpass: cutoff must be in (0, fs/2)");

  // Prewarped analog cutoff so the -3 dB point lands exactly at cutoff_hz
  // after the bilinear transform.
  const double k = 2.0 * fs;
  const double wc = k * std::tan(std::numbers::pi * cutoff_hz / fs);

  std::vector<Biquad> sections;
  const std::size_t n_pairs = order / 2;
  for (std::size_t i = 0; i < n_pairs; ++i) {
    // Butterworth pole-pair damping: zeta = cos(theta) with theta the pole
    // angle from the negative real axis. Odd orders also carry a real pole,
    // which shifts the conjugate pairs to theta = pi*(i+1)/order.
    const double numer = 2.0 * static_cast<double>(i) + 1.0 +
                         (order % 2 == 1 ? 1.0 : 0.0);
    const double theta =
        std::numbers::pi * numer / (2.0 * static_cast<double>(order));
    const double zeta = std::cos(theta);
    // Bilinear transform of wc^2 / (s^2 + 2 zeta wc s + wc^2).
    const double a0 = k * k + 2.0 * zeta * wc * k + wc * wc;
    Biquad s;
    s.b0 = wc * wc / a0;
    s.b1 = 2.0 * s.b0;
    s.b2 = s.b0;
    s.a1 = 2.0 * (wc * wc - k * k) / a0;
    s.a2 = (k * k - 2.0 * zeta * wc * k + wc * wc) / a0;
    sections.push_back(s);
  }
  if (order % 2 == 1) {
    // Real pole: wc / (s + wc) as a degenerate biquad.
    const double a0 = k + wc;
    Biquad s;
    s.b0 = wc / a0;
    s.b1 = s.b0;
    s.b2 = 0.0;
    s.a1 = (wc - k) / a0;
    s.a2 = 0.0;
    sections.push_back(s);
  }
  return BiquadCascade(std::move(sections));
}

}  // namespace stf::dsp
