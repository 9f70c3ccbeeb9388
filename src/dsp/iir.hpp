// IIR filtering: biquad sections and Butterworth lowpass design.
//
// The paper's signature path low-pass filters the downconverted response
// (10 MHz cutoff in the simulation study) before sampling. A Butterworth
// cascade of biquads models that analog filter; the bilinear transform maps
// the analog prototype to the simulation sample rate.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace stf::dsp {

/// Second-order IIR section, direct form II transposed.
/// H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2).
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;

  /// Complex frequency response at freq (Hz) for sample rate fs.
  std::complex<double> response(double freq, double fs) const;
};

/// Cascade of biquad sections with per-instance state; processes real or
/// complex (I/Q independent) streams.
class BiquadCascade {
 public:
  explicit BiquadCascade(std::vector<Biquad> sections);

  /// Filter a real signal (state starts at zero; one-shot semantics).
  std::vector<double> filter(const std::vector<double>& x) const;

  /// Filter a complex envelope (identical filter on I and Q).
  std::vector<std::complex<double>> filter(
      const std::vector<std::complex<double>>& x) const;

  /// In-place one-shot filter of a real signal. A single real channel is a
  /// loop-carried recurrence (every output feeds the next sample through
  /// z1/z2), so this path is inherently scalar; it exists for the
  /// allocation-free hot path, not for lanes.
  void filter_inplace(std::span<double> x) const;

  /// In-place filter of a complex envelope. I and Q are independent real
  /// channels run in lockstep, so they fill vector lanes; bit-identical to
  /// the two-pass scalar reference.
  void filter_inplace(std::span<std::complex<double>> x) const;

  /// In-place filter of `n_channels` equal-length real channels stored
  /// interleaved (x[t * n_channels + c] is channel c at time t). Channels
  /// are independent; lane-sized channel groups run vectorized and the
  /// remainder runs scalar, with per-channel results bit-identical either
  /// way. Like filter_inplace, every section of the cascade (up to four per
  /// pass) advances in one pass over time. The device-lane capture path
  /// filters one device per channel. x.size() must be a multiple of
  /// n_channels.
  void filter_interleaved(std::span<double> x, std::size_t n_channels) const;

  /// Combined complex frequency response.
  std::complex<double> response(double freq, double fs) const;

  const std::vector<Biquad>& sections() const { return sections_; }

 private:
  std::vector<Biquad> sections_;
};

/// Butterworth lowpass of the given order, cutoff (-3 dB) at cutoff_hz,
/// discretized at fs via the bilinear transform with frequency prewarping.
/// Odd orders realize the real pole as a degenerate biquad.
BiquadCascade butterworth_lowpass(std::size_t order, double cutoff_hz,
                                  double fs);

}  // namespace stf::dsp
