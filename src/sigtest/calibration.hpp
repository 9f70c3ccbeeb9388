// Calibration: nonlinear regression from signatures to specifications.
//
// This is the paper's "normalized calibration relationships" stage
// (Section 3.2, Fig. 5): a one-time training pass on devices measured both
// ways (specs on an RF ATE / direct simulation, signatures on the low-cost
// path). Features are z-score normalized signature bins plus their squares
// (a compact nonlinear basis in the spirit of the MARS-style regressors the
// paper cites); one ridge-regularized linear model per specification keeps
// the fit stable when bins are collinear or the calibration set is small
// (28 devices in the hardware study).
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "sigtest/acquisition.hpp"

namespace stf::sigtest {

struct CalibrationOptions {
  /// Polynomial feature degree over normalized bins: 1 = linear,
  /// 2 = adds elementwise squares.
  std::size_t poly_degree = 2;
  /// Ridge regularization strength on the normalized design matrix.
  double ridge_lambda = 1e-2;
  /// Bins whose device-to-device variance is below
  /// (min_bin_snr^2 * capture noise variance) are dropped from the feature
  /// set: such bins are unit-variance *noise* features after normalization,
  /// and with few calibration devices the regression will happily use them
  /// to interpolate the training targets, then explode on fresh captures.
  /// Only active when fit() receives a noise_var estimate.
  double min_bin_snr = 1.0;
};

/// Thrown by CalibrationModel::deserialize on any malformed input: bad
/// header, unexpected key, truncation, absurd dimensions, or out-of-range
/// options. Derives from std::invalid_argument so existing catch sites keep
/// working; the message names the offending field.
struct CalibrationParseError : std::invalid_argument {
  explicit CalibrationParseError(const std::string& what_arg)
      : std::invalid_argument("CalibrationModel::deserialize: " + what_arg) {}
};

/// Per-spec ridge regression on normalized polynomial signature features.
class CalibrationModel {
 public:
  explicit CalibrationModel(CalibrationOptions options = {});

  /// Fit from n training devices: signatures (n x m matrix, one row per
  /// device) and specs (n x n_specs). Throws if n < 2 or sizes mismatch.
  ///
  /// noise_var (optional, length m) is the per-bin variance of ONE
  /// production capture's measurement noise. It is folded into the feature
  /// scale (scale_j = sqrt(device_var_j + noise_var_j)), so bins whose
  /// device-to-device variation is below the noise floor are not amplified
  /// into pure-noise features -- without this, averaged calibration
  /// signatures followed by single-capture production signatures push weak
  /// bins many "calibration sigmas" out of distribution and polynomial
  /// features explode.
  void fit(const stf::la::Matrix& signatures, const stf::la::Matrix& specs,
           const std::vector<double>& noise_var = {});

  /// Predict all specs for one signature. Throws if not fitted or the
  /// signature length differs from training.
  std::vector<double> predict(const Signature& signature) const;

  /// Batched predict: one signature per row (n x signature_length), one
  /// prediction per row (n x n_specs) out. The per-row accumulation order
  /// matches predict() exactly, so batched results are bit-identical to
  /// calling predict() row by row.
  stf::la::Matrix predict_batch(const stf::la::Matrix& signatures) const;

  bool fitted() const { return fitted_; }
  std::size_t n_specs() const { return weights_.rows(); }
  std::size_t signature_length() const { return bin_mean_.size(); }

  /// Text serialization of a fitted model (versioned, line-oriented), for
  /// deploying calibrations from the characterization lab to production
  /// testers. Round-trips exactly: deserialize(serialize()) predicts
  /// identically.
  std::string serialize() const;
  static CalibrationModel deserialize(const std::string& text);

 private:
  std::vector<double> features(const Signature& signature) const;

  /// Shared GEMV kernel: out[s] = sum_j w(s,j) f[j] (j ascending) scaled
  /// back to spec units. predict() and predict_batch() both funnel through
  /// this, so batched and serial results are the same code path.
  void predict_features_into(const double* features, double* out) const;

  CalibrationOptions options_;
  bool fitted_ = false;
  // Feature normalization (per signature bin).
  std::vector<double> bin_mean_;
  std::vector<double> bin_scale_;
  // Bins failing the SNR screen contribute zero features.
  std::vector<bool> bin_alive_;
  // Target normalization (per spec).
  std::vector<double> spec_mean_;
  std::vector<double> spec_scale_;
  // One weight row per spec over the feature vector (incl. bias).
  stf::la::Matrix weights_;
};

/// Produces one (noisy) signature capture of training device i.
using CaptureFn = std::function<Signature(std::size_t device_index)>;
/// Reference specification vector of training device i.
using SpecsFn = std::function<std::vector<double>(std::size_t device_index)>;

/// The raw material of one calibration pass: per-device averaged
/// signatures (one row per device) and the per-bin single-capture noise
/// variance estimated from the repeats (empty when n_avg == 1). Retained
/// so signature-space screens (OutlierScreen, the guarded runtime's drift
/// monitor) can be fitted on exactly the population the model saw.
struct CaptureFitData {
  stf::la::Matrix signatures;
  std::vector<double> noise_var;
};

/// Shared calibration driver: averages n_avg captures per device,
/// estimates the per-bin single-capture noise variance from the repeats,
/// and fits the model with that estimate (enabling the SNR bin screen).
/// Used by both the RF (TestCell) and baseband-analog runtimes.
/// When `retained` is non-null it receives the averaged signatures and
/// noise estimate the fit consumed.
void fit_from_captures(CalibrationModel& model, std::size_t n_devices,
                       const CaptureFn& capture, const SpecsFn& specs,
                       int n_avg, CaptureFitData* retained = nullptr);

/// Normalized RMS prediction error of a fitted model over held-out rows:
/// sqrt(mean over rows and specs of ((pred - truth) / spec_spread)^2),
/// with spec_spread the spec's own std over the given rows (1.0 when
/// degenerate), so specs in different units weigh equally and two models
/// scored on a common holdout compare directly (the store's rollback
/// guard).
/// Throws on an unfitted model or mismatched shapes.
double normalized_rms_error(const CalibrationModel& model,
                            const stf::la::Matrix& signatures,
                            const stf::la::Matrix& specs);

}  // namespace stf::sigtest
