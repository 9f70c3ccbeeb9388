// Descriptive statistics over sample vectors.
#pragma once

#include <cstddef>
#include <vector>

namespace stf::stats {

/// Arithmetic mean. Throws on empty input.
double mean(const std::vector<double>& v);

/// Sample variance (divides by n-1). Throws if v.size() < 2.
double variance(const std::vector<double>& v);

/// Sample standard deviation.
double stddev(const std::vector<double>& v);

/// Population standard deviation (divides by n). Throws on empty input.
double stddev_population(const std::vector<double>& v);

/// Minimum element. Throws on empty input.
double min(const std::vector<double>& v);

/// Maximum element. Throws on empty input.
double max(const std::vector<double>& v);

/// Median (average of the two central order statistics for even n).
double median(std::vector<double> v);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

}  // namespace stf::stats
