// Parametric fault diagnosis: estimating process parameters from the
// signature.
//
// The companion work the paper cites ([Cherubal/Chatterjee, DATE'99,
// "Parametric fault diagnosis for analog systems using functional
// mapping"]) inverts the same measurement: instead of (or in addition to)
// predicting datasheet specs, the regression maps the signature back to
// the underlying statistical process parameters -- turning the production
// tester into a process monitor. The machinery is identical to spec
// calibration with the process vector as the regression target.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/pwl.hpp"
#include "rf/population.hpp"
#include "sigtest/calibration.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Signature -> process-parameter estimator.
class ParametricDiagnoser {
 public:
  ParametricDiagnoser(const SignatureTestConfig& config,
                      stf::dsp::PwlWaveform stimulus,
                      std::vector<std::string> param_names,
                      CalibrationOptions cal_options = {},
                      std::size_t max_signature_bins = 16);

  /// Calibrate on devices with known process vectors (in silicon these
  /// come from PCM/e-test structures on the same wafer).
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// Estimate the process vector of one device from a single acquisition.
  std::vector<double> diagnose(const stf::rf::RfDut& dut,
                               stf::stats::Rng& rng) const;

  /// Evaluate estimation quality over a validation population: diagnose()
  /// on every device, in order on one shared stream, against its process
  /// vector. Errors are in each parameter's own units.
  ValidationReport validate(const std::vector<stf::rf::DeviceRecord>& devices,
                            stf::stats::Rng& rng) const;

  bool calibrated() const { return model_.fitted(); }

 private:
  SignatureAcquirer acquirer_;
  stf::dsp::PwlWaveform stimulus_;
  std::vector<std::string> param_names_;
  CalibrationModel model_;
};

}  // namespace stf::sigtest
