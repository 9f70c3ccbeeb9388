#include "dsp/pwl.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/contracts.hpp"

namespace stf::dsp {

PwlWaveform::PwlWaveform(std::vector<PwlPoint> points)
    : points_(std::move(points)) {
  STF_REQUIRE(points_.size() >= 2,
              "PwlWaveform: need at least two breakpoints");
  for (std::size_t i = 1; i < points_.size(); ++i)
    STF_REQUIRE(points_[i].t > points_[i - 1].t,
                "PwlWaveform: breakpoint times must be strictly increasing");
}

PwlWaveform PwlWaveform::uniform(double duration,
                                 const std::vector<double>& values) {
  STF_REQUIRE(duration > 0.0, "PwlWaveform::uniform: duration must be > 0");
  STF_REQUIRE(values.size() >= 2, "PwlWaveform::uniform: need >= 2 values");
  std::vector<PwlPoint> pts(values.size());
  const double dt = duration / static_cast<double>(values.size() - 1);
  for (std::size_t i = 0; i < values.size(); ++i)
    pts[i] = {static_cast<double>(i) * dt, values[i]};
  return PwlWaveform(std::move(pts));
}

double PwlWaveform::sample(double t) const {
  STF_REQUIRE(std::isfinite(t), "PwlWaveform::sample: t must be finite");
  // stf-lint: checked -- ctor enforces >= 2 breakpoints.
  if (t <= points_.front().t) return points_.front().v;
  // stf-lint: checked -- ctor enforces >= 2 breakpoints.
  if (t >= points_.back().t) return points_.back().v;
  // Binary search for the segment containing t.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double value, const PwlPoint& p) { return value < p.t; });
  const PwlPoint& hi = *it;
  const PwlPoint& lo = *(it - 1);
  const double frac = (t - lo.t) / (hi.t - lo.t);
  return lo.v + frac * (hi.v - lo.v);
}

std::vector<double> PwlWaveform::render(double fs) const {
  const auto n = static_cast<std::size_t>(std::floor(duration() * fs)) + 1;
  return render(fs, n);
}

std::vector<double> PwlWaveform::render(double fs, std::size_t n) const {
  STF_REQUIRE(fs > 0.0, "PwlWaveform::render: fs <= 0");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = sample(static_cast<double>(i) / fs);
  return out;
}

double PwlWaveform::duration() const {
  // stf-lint: checked -- ctor enforces >= 2 breakpoints.
  return points_.back().t - points_.front().t;
}

double PwlWaveform::peak() const {
  double p = 0.0;
  for (const auto& pt : points_) p = std::max(p, std::abs(pt.v));
  return p;
}

PwlWaveform PwlWaveform::scaled(double s) const {
  std::vector<PwlPoint> pts = points_;
  for (auto& p : pts) p.v *= s;
  return PwlWaveform(std::move(pts));
}

std::string PwlWaveform::to_csv() const {
  std::ostringstream os;
  os.precision(17);
  for (const auto& p : points_) os << p.t << ',' << p.v << '\n';
  return os.str();
}

}  // namespace stf::dsp
