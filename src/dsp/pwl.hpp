// Piecewise-linear (PWL) waveform representation.
//
// The optimized baseband test stimulus is a PWL waveform whose breakpoint
// voltages are the genes of the genetic optimization (paper Section 3.1,
// Fig. 7). An arbitrary waveform generator plays it back, so the model is a
// list of (time, value) breakpoints with linear interpolation between them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace stf::dsp {

/// One PWL breakpoint.
struct PwlPoint {
  double t;  ///< Time in seconds (strictly increasing across the waveform).
  double v;  ///< Value (volts at the AWG output).
};

/// Piecewise-linear waveform over [t_front, t_back].
///
/// Outside the breakpoint span the waveform holds its end values, matching
/// AWG hold behavior.
class PwlWaveform {
 public:
  PwlWaveform() = default;

  /// Construct from breakpoints; times must be strictly increasing and at
  /// least two points are required.
  explicit PwlWaveform(std::vector<PwlPoint> points);

  /// Uniformly spaced breakpoints over [0, duration] with given values.
  static PwlWaveform uniform(double duration, const std::vector<double>& values);

  /// Interpolated value at time t.
  double sample(double t) const;

  /// Render the waveform at sample rate fs over its full duration.
  std::vector<double> render(double fs) const;

  /// Render n samples starting at t=0 with spacing 1/fs.
  std::vector<double> render(double fs, std::size_t n) const;

  double duration() const;
  const std::vector<PwlPoint>& points() const { return points_; }

  /// Peak absolute value across breakpoints (PWL extrema are breakpoints).
  double peak() const;

  /// New waveform with all values multiplied by s.
  PwlWaveform scaled(double s) const;

  /// CSV serialization "t,v" per line, 17 significant digits.
  std::string to_csv() const;

 private:
  std::vector<PwlPoint> points_;
};

}  // namespace stf::dsp
