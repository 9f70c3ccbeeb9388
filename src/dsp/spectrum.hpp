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

/// Mean-square power of a real signal (V^2 into 1 ohm).
double signal_power(const std::vector<double>& x);

/// Mean-square power of a complex envelope (|x|^2 averaged; passband power
/// of the corresponding real signal is half this value).
double signal_power(const std::vector<std::complex<double>>& x);

}  // namespace stf::dsp
