// Production pass/fail flow: applies spec limits to predicted specs and
// accounts for the two error types a predictive test introduces --
// test escapes (bad parts shipped) and yield loss (good parts scrapped).
#pragma once

#include <string>
#include <vector>

#include "sigtest/guard.hpp"

namespace stf::ate {

/// Lower/upper limit per specification; use +/-infinity for one-sided.
struct SpecLimit {
  std::string name;
  double lower;
  double upper;

  bool passes(double value) const { return value >= lower && value <= upper; }
};

/// Outcome counts from comparing limit decisions made on predicted specs
/// against decisions on true specs.
struct FlowResult {
  int true_pass = 0;    ///< Good part shipped.
  int true_fail = 0;    ///< Bad part scrapped.
  int test_escape = 0;  ///< Bad part shipped (prediction said pass).
  int yield_loss = 0;   ///< Good part scrapped (prediction said fail).
  int retested = 0;     ///< Predicted only after guard retries (also counted
                        ///< in the four decision buckets above).
  int routed_conventional = 0;  ///< Measured conventionally; their exact
                                ///< decisions land in true_pass/true_fail.

  int total() const {
    return true_pass + true_fail + test_escape + yield_loss;
  }
  double escape_rate() const;
  double yield_loss_rate() const;
};

/// Evaluate the flow: truth[i] and predicted[i] are per-device spec
/// vectors aligned with limits, every device decided on its prediction.
/// guard_band_db tightens every limit applied to predictions by that margin
/// (the standard defense against prediction error at the cost of extra
/// yield loss).
FlowResult run_production_flow(
    const std::vector<std::vector<double>>& truth,
    const std::vector<std::vector<double>>& predicted,
    const std::vector<SpecLimit>& limits, double guard_band = 0.0);

/// Disposition-aware flow over what sigtest::TestCell::test_device and
/// test_lot produce. A guarded signature tester does not predict every
/// part: suspect captures are retried, and parts whose captures never
/// validate are measured conventionally instead. Routed devices
/// (kRoutedToConventional) carry no prediction; their decision comes from
/// truth[i], so they can be neither an escape nor a yield loss. Devices
/// predicted after retry are decided like predictions and counted in
/// `retested`.
FlowResult run_production_flow(
    const std::vector<std::vector<double>>& truth,
    const std::vector<stf::sigtest::TestDisposition>& lot,
    const std::vector<SpecLimit>& limits, double guard_band = 0.0);

}  // namespace stf::ate
