// Spectral measurement: tone amplitude/power extraction.
//
// Conventional-test emulation measures gain from a single tone and IIP3
// from two-tone intermodulation products; both need accurate amplitude
// readings at known frequencies. A windowed single-bin correlation at the
// tone frequency, with a flat-top window, reads off-bin tone amplitudes
// accurately.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "dsp/window.hpp"

namespace stf::dsp {

/// Amplitude (peak, not RMS) of the sinusoidal component at freq, using the
/// given window to control leakage. For a pure tone A*cos(2 pi f t) this
/// returns approximately A.
double tone_amplitude(const std::vector<double>& x, double freq, double fs,
                      WindowType window = WindowType::kFlatTop);

/// Complex-envelope variant: amplitude of the component exp(+j 2 pi f t).
double tone_amplitude(const std::vector<std::complex<double>>& x, double freq,
                      double fs, WindowType window = WindowType::kFlatTop);

/// Tone power in dBm assuming the amplitude is a voltage across r_ohms.
/// P = A^2 / (2 R), dBm = 10 log10(P / 1 mW).
double amplitude_to_dbm(double amplitude, double r_ohms = 50.0);

/// Inverse of amplitude_to_dbm.
double dbm_to_amplitude(double dbm, double r_ohms = 50.0);

/// Mean-square power of a real signal (V^2 into 1 ohm).
double signal_power(const std::vector<double>& x);

/// Mean-square power of a complex envelope (|x|^2 averaged; passband power
/// of the corresponding real signal is half this value).
double signal_power(const std::vector<std::complex<double>>& x);

/// Welch-averaged one-sided power spectral density estimate (V^2/Hz).
///
/// The signal is cut into segments of `segment` samples with the given
/// fractional overlap, each windowed and periodogrammed, and the
/// periodograms averaged; the estimator variance falls with the number of
/// segments. Used for noise-floor characterization of capture chains.
/// Returns segment/2 + 1 bins at spacing fs/segment.
std::vector<double> welch_psd(const std::vector<double>& x, double fs,
                              std::size_t segment, double overlap = 0.5,
                              WindowType window = WindowType::kHann);

}  // namespace stf::dsp
