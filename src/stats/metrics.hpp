// Prediction-quality metrics used to report every experiment.
//
// The paper quotes std(err) on its scatter plots (Figs. 8-10) and RMS error
// in the text (Sections 4.1-4.2); these functions compute exactly those
// quantities from (true, predicted) pairs.
#pragma once

#include <cstddef>
#include <vector>

namespace stf::stats {

/// Residuals predicted[i] - truth[i].
std::vector<double> residuals(const std::vector<double>& truth,
                              const std::vector<double>& predicted);

/// Root-mean-square error sqrt(mean((pred - true)^2)).
double rms_error(const std::vector<double>& truth,
                 const std::vector<double>& predicted);

/// Standard deviation of the residuals (the paper's "std(err)").
double std_error(const std::vector<double>& truth,
                 const std::vector<double>& predicted);

/// Largest absolute residual.
double max_abs_error(const std::vector<double>& truth,
                     const std::vector<double>& predicted);

/// Coefficient of determination R^2 = 1 - SS_res / SS_tot.
double r_squared(const std::vector<double>& truth,
                 const std::vector<double>& predicted);

}  // namespace stf::stats
