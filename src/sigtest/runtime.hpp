// FASTest-style runtime system (paper Fig. 5): the production-test engine.
//
// Calibration phase: each training device is measured for its reference
// specs (RF ATE / direct simulation) and its signature on the low-cost
// path; a CalibrationModel is fitted. Production phase: one signature
// acquisition per device and a regression evaluation yield every
// specification -- no RF ATE involved.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "dsp/pwl.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Per-spec scatter data and error metrics (what Figs. 8-10/12-13 plot).
struct SpecScatter {
  std::string name;
  std::vector<double> truth;      ///< Direct-simulation / measured spec.
  std::vector<double> predicted;  ///< Signature-test prediction.
  double rms_error = 0.0;
  double std_error = 0.0;  ///< The paper's "std(err)".
  double max_abs_error = 0.0;
  double r_squared = 0.0;
};

struct ValidationReport {
  std::vector<SpecScatter> specs;
};

/// The runtime: a configured signature path + optimized stimulus + fitted
/// calibration model.
class FastestRuntime {
 public:
  FastestRuntime(const SignatureTestConfig& config,
                 stf::dsp::PwlWaveform stimulus,
                 std::vector<std::string> spec_names,
                 CalibrationOptions cal_options = {},
                 std::size_t max_signature_bins = 16);

  // Copy/move snapshot the published model under the source's lock (the
  // model itself is immutable and shared, never deep-copied). Copying
  // concurrently with calibrate() on the source is not supported.
  FastestRuntime(const FastestRuntime& other);
  FastestRuntime(FastestRuntime&& other);
  FastestRuntime& operator=(const FastestRuntime&) = delete;
  FastestRuntime& operator=(FastestRuntime&&) = delete;

  /// One-time calibration on the training devices. Signatures are acquired
  /// with noise from rng (the real tester is noisy during calibration too);
  /// n_avg captures per device are averaged -- calibration is a one-time
  /// effort, so spending extra captures there is standard practice and
  /// removes the errors-in-variables bias a noisy regressor suffers.
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// Production-test one device: acquire its signature and map to specs.
  std::vector<double> test_device(const stf::rf::RfDut& dut,
                                  stf::stats::Rng& rng) const;

  /// Production-test one device through a degraded measurement chain: the
  /// fault injector corrupts the digitized capture before the signature
  /// stage (device `sequence` in the lot drives the slow-drift faults).
  /// This is the *unguarded* baseline the escape-rate benches compare
  /// GuardedRuntime against: a corrupted signature is regressed into spec
  /// predictions without any validation.
  std::vector<double> test_device(const stf::rf::RfDut& dut,
                                  stf::stats::Rng& rng,
                                  const stf::rf::FaultInjector& faults,
                                  std::uint64_t sequence) const;

  /// Regression evaluation alone: map an already-acquired signature to
  /// specs (the guarded runtime validates captures first, then predicts).
  std::vector<double> predict(const Signature& signature) const;

  /// Batched regression evaluation: one signature per row in, one
  /// prediction per row out. Bit-identical to predict() row by row (see
  /// CalibrationModel::predict_batch).
  stf::la::Matrix predict_batch(const stf::la::Matrix& signatures) const;

  /// Test every validation device and compare predictions against their
  /// reference specs.
  ValidationReport validate(const std::vector<stf::rf::DeviceRecord>& devices,
                            stf::stats::Rng& rng) const;

  const SignatureAcquirer& acquirer() const { return acquirer_; }
  const stf::dsp::PwlWaveform& stimulus() const { return stimulus_; }
  const std::vector<std::string>& spec_names() const { return spec_names_; }
  bool calibrated() const { return model() != nullptr; }

  /// RCU-style snapshot of the current calibration model (null before
  /// calibration). The returned pointer is immutable and stays valid for
  /// as long as the caller holds it, no matter how many set_model() swaps
  /// happen meanwhile -- this is what lets in-flight lots finish on the
  /// model version they started with.
  std::shared_ptr<const CalibrationModel> model() const;

  /// Hot-swap the calibration model under live traffic. The model must be
  /// fitted and dimensionally compatible (signature_length ==
  /// acquirer().signature_length(), n_specs == spec_names().size());
  /// anything else throws without publishing. Readers mid-predict keep
  /// their snapshot; new predictions see the new model.
  void set_model(std::shared_ptr<const CalibrationModel> model);

  /// Averaged calibration signatures (one row per training device),
  /// retained by calibrate() so signature-space screens can be fitted on
  /// exactly the population the regression saw. Empty before calibration.
  const stf::la::Matrix& calibration_signatures() const {
    return cal_data_.signatures;
  }
  /// Per-bin single-capture noise variance estimated during calibration
  /// (empty when calibrated with n_avg == 1).
  const std::vector<double>& capture_noise_var() const {
    return cal_data_.noise_var;
  }

 private:
  SignatureAcquirer acquirer_;
  stf::dsp::PwlWaveform stimulus_;
  std::vector<std::string> spec_names_;
  CalibrationOptions cal_options_;
  mutable stf::core::Mutex model_mutex_;
  std::shared_ptr<const CalibrationModel> model_ STF_GUARDED_BY(model_mutex_);
  CaptureFitData cal_data_;
};

}  // namespace stf::sigtest
