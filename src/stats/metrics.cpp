#include "stats/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "stats/descriptive.hpp"

namespace stf::stats {

std::vector<double> residuals(const std::vector<double>& truth,
                              const std::vector<double>& predicted) {
  STF_REQUIRE(truth.size() == predicted.size(), "residuals: size mismatch");
  std::vector<double> r(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) r[i] = predicted[i] - truth[i];
  return r;
}

double rms_error(const std::vector<double>& truth,
                 const std::vector<double>& predicted) {
  const auto r = residuals(truth, predicted);
  STF_REQUIRE(!r.empty(), "rms_error: empty input");
  double s = 0.0;
  for (double x : r) s += x * x;
  return std::sqrt(s / static_cast<double>(r.size()));
}

double std_error(const std::vector<double>& truth,
                 const std::vector<double>& predicted) {
  return stddev_population(residuals(truth, predicted));
}

double max_abs_error(const std::vector<double>& truth,
                     const std::vector<double>& predicted) {
  const auto r = residuals(truth, predicted);
  STF_REQUIRE(!r.empty(), "max_abs_error: empty input");
  double m = 0.0;
  for (double x : r) m = std::max(m, std::abs(x));
  return m;
}

double r_squared(const std::vector<double>& truth,
                 const std::vector<double>& predicted) {
  const auto r = residuals(truth, predicted);
  STF_REQUIRE(r.size() >= 2, "r_squared: need >= 2 samples");
  const double m = mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += r[i] * r[i];
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  STF_REQUIRE(ss_tot != 0.0, "r_squared: zero-variance truth");
  return 1.0 - ss_res / ss_tot;
}

}  // namespace stf::stats
