// Rate conversion between simulation and digitizer sample rates.
//
// The envelope simulation runs at a rate set by the LPF model; the
// digitizer then captures at the tester rate (20 MHz in the simulation
// study, 1 MHz in the hardware study). Decimation applies an anti-alias
// FIR first; arbitrary-ratio conversion interpolates linearly.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace stf::dsp {

/// Output length of resample_linear for an n_in-sample input:
/// floor(duration * fs_out) + 1 with duration = (n_in - 1) / fs_in.
std::size_t resample_length(std::size_t n_in, double fs_in, double fs_out);

/// Linear-interpolation resample from fs_in to fs_out over the same time
/// span (output length = floor(duration * fs_out) + 1).
std::vector<double> resample_linear(const std::vector<double>& x, double fs_in,
                                    double fs_out);

/// Allocation-free resample_linear: out.size() must equal
/// resample_length(x.size(), fs_in, fs_out). Bit-identical to the
/// allocating overload (interpolation is a per-output gather, so there is
/// nothing to vectorize deterministically -- this variant exists for the
/// zero-allocation capture path, not for lanes).
void resample_linear_into(std::span<const double> x, double fs_in,
                          double fs_out, std::span<double> out);

/// resample_linear_into over `n_channels` equal-length channels stored
/// interleaved (x[t * n_channels + c] is channel c at time t; out likewise).
/// Each channel is bit-identical to resample_linear_into on that channel
/// alone.
void resample_interleaved_into(std::span<const double> x,
                               std::size_t n_channels, double fs_in,
                               double fs_out, std::span<double> out);

/// Complex variant of resample_linear.
std::vector<std::complex<double>> resample_linear(
    const std::vector<std::complex<double>>& x, double fs_in, double fs_out);

/// Integer-factor decimation with an anti-alias lowpass (cutoff at
/// 0.45 * fs_in / factor).
std::vector<double> decimate(const std::vector<double>& x, std::size_t factor);

}  // namespace stf::dsp
