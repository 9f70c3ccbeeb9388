#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::stats {

namespace {
void require_nonempty(const std::vector<double>& v, const char* what) {
  if (v.empty()) throw std::invalid_argument(what);
}
}  // namespace

double mean(const std::vector<double>& v) {
  require_nonempty(v, "mean: empty input");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  STF_REQUIRE(v.size() >= 2, "variance: need >= 2 samples");
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double stddev_population(const std::vector<double>& v) {
  require_nonempty(v, "stddev_population: empty input");
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size()));
}

double min(const std::vector<double>& v) {
  require_nonempty(v, "min: empty input");
  return *std::min_element(v.begin(), v.end());
}

double max(const std::vector<double>& v) {
  require_nonempty(v, "max: empty input");
  return *std::max_element(v.begin(), v.end());
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  require_nonempty(v, "percentile: empty input");
  STF_REQUIRE(!(p < 0.0 || p > 100.0), "percentile: p outside [0, 100]");
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace stf::stats
