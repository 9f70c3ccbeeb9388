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

// One channel per pass: a scalar lane.
struct ScalarLane {
  using V = double;
  static V broadcast(double x) { return x; }
  static V load(const double* p) { return *p; }
  static void store(double* p, V v) { *p = v; }
};

// simd::kLanes channels per pass, one per vector lane.
struct VectorLane {
  using V = simd::VecD;
  static V broadcast(double x) { return simd::broadcast(x); }
  static V load(const double* p) { return simd::load(p); }
  static void store(double* p, V v) { simd::store(p, v); }
};

// Direct form II transposed, one-shot over the whole buffer, for G
// consecutive sections in one pass over time: at each sample, section k
// filters section k-1's output of the same instant. A section's recurrence
// depends only on its own state, so the G recurrences overlap in the
// pipeline instead of running back to back, while every section performs
// the reference operations below in the reference order -- each output is
// bit-identical to filtering one whole section at a time. x[t * stride] is
// the channel's sample t; with the vector lane, the kLanes channels from x
// on step through time together, each lane running exactly the scalar
// operations (products, then the same sum/difference chain, no FMA -- this
// TU compiles with -ffp-contract=off). The coefficients are copied to
// locals so stores to x cannot alias them.
template <class L, std::size_t G>
void run_sections_fused(const Biquad* sections, double* x, std::size_t n,
                        std::size_t stride) {
  using V = typename L::V;
  V b0[G], b1[G], b2[G], a1[G], a2[G], z1[G], z2[G];
  for (std::size_t k = 0; k < G; ++k) {
    b0[k] = L::broadcast(sections[k].b0);
    b1[k] = L::broadcast(sections[k].b1);
    b2[k] = L::broadcast(sections[k].b2);
    a1[k] = L::broadcast(sections[k].a1);
    a2[k] = L::broadcast(sections[k].a2);
    z1[k] = L::broadcast(0.0);
    z2[k] = L::broadcast(0.0);
  }
  for (std::size_t i = 0; i < n; ++i, x += stride) {
    V in = L::load(x);
    for (std::size_t k = 0; k < G; ++k) {
      const V out = b0[k] * in + z1[k];
      z1[k] = b1[k] * in - a1[k] * out + z2[k];
      z2[k] = b2[k] * in - a2[k] * out;
      in = out;
    }
    L::store(x, in);
  }
}

// The whole cascade, up to four sections per pass: the board's
// Butterworth orders through 8 take a single pass over the signal.
template <class L>
void run_cascade_fused(const std::vector<Biquad>& sections, double* x,
                       std::size_t n, std::size_t stride) {
  const Biquad* s = sections.data();
  std::size_t left = sections.size();
  for (; left >= 4; left -= 4, s += 4)
    run_sections_fused<L, 4>(s, x, n, stride);
  switch (left) {
    case 3: run_sections_fused<L, 3>(s, x, n, stride); break;
    case 2: run_sections_fused<L, 2>(s, x, n, stride); break;
    case 1: run_sections_fused<L, 1>(s, x, n, stride); break;
    default: break;
  }
}

// Channel-interleaved cascade: data[t * k + c] is channel c at time t.
// Channels are independent recurrences, so lane-sized channel groups step
// through time together; the remaining channels (all of them on the scalar
// backend or with the runtime switch off) run the reference recurrence one
// channel at a time. Either way each channel is bit-identical to
// filter_inplace on that channel alone.
void run_interleaved(const std::vector<Biquad>& sections, double* x,
                     std::size_t k, std::size_t n) {
  std::size_t c0 = 0;
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      for (; c0 + simd::kLanes <= k; c0 += simd::kLanes)
        run_cascade_fused<VectorLane>(sections, x + c0, n, k);
    }
  }
  for (; c0 < k; ++c0) run_cascade_fused<ScalarLane>(sections, x + c0, n, k);
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
  run_cascade_fused<ScalarLane>(sections_, x.data(), x.size(), 1);
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
