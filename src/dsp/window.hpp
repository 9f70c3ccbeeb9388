// Window functions for spectral estimation.
//
// Tone-power measurements (gain, IM3 products) use windows to control
// spectral leakage; the flat-top window gives amplitude-accurate readings
// for tones that do not land exactly on a bin.
#pragma once

#include <cstddef>
#include <vector>

namespace stf::dsp {

enum class WindowType { kRect, kHann, kHamming, kBlackman, kFlatTop };

/// Generate an n-point window of the given type (periodic convention:
/// w[i] uses i/n -- the right choice for spectral analysis of contiguous
/// blocks).
std::vector<double> make_window(WindowType type, std::size_t n);

/// Sum of window coefficients, used to normalize amplitude spectra.
double window_gain(const std::vector<double>& w);

}  // namespace stf::dsp
