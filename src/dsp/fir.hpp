// FIR filter application.
//
// The EVM extension's QPSK chain (rf/evm) shapes and matched-filters its
// symbols with root-raised-cosine taps (dsp/rrc) through the complex
// fir_filter. The load board's anti-alias path is not an FIR: it is the
// Butterworth biquad cascade in dsp/iir.
#pragma once

#include <complex>
#include <vector>

namespace stf::dsp {

/// Convolve signal with taps, returning a same-length output with the
/// filter's group delay compensated (suitable for measurement pipelines).
std::vector<double> fir_filter(const std::vector<double>& taps,
                               const std::vector<double>& x);

/// Complex-envelope variant (taps applied to I and Q independently).
std::vector<std::complex<double>> fir_filter(
    const std::vector<double>& taps,
    const std::vector<std::complex<double>>& x);

}  // namespace stf::dsp
