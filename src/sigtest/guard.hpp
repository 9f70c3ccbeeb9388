// Value types of the guarded production test (sigtest/cell.hpp): the guard
// policy, the typed per-device disposition, one capture attempt, one drift
// check, and one published calibration version.
//
// They live apart from the test cell so that code that only carries
// dispositions -- the ATE flow, the wire codec, the benchmark's digest --
// does not pull in the engine.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/outlier.hpp"

namespace stf::sigtest {

/// Knobs of the capture-validation and retest policy.
struct GuardPolicy {
  /// Total capture attempts per device (first try + retries).
  int max_attempts = 3;
  /// Captures averaged per retry attempt: attempt k >= 2 averages
  /// escalation_averages^(k-1) captures, so escalation is geometric.
  int escalation_averages = 4;
  /// OutlierScreen score above which a signature is suspect.
  double outlier_threshold = 4.0;
  /// A capture is "railed" when more than this fraction of samples sit at
  /// the capture's own extreme value (exact-equality railing; a clean noisy
  /// capture attains its maximum essentially once). Note: a coarse
  /// quantizer (Digitizer::bits small) can legitimately repeat the top
  /// code; raise this limit for such configurations.
  double rail_fraction_limit = 0.02;
  /// EWMA smoothing factor of the golden-device drift monitor.
  double drift_ewma_alpha = 0.25;
  /// EWMA outlier-score level that raises the recalibration flag.
  double drift_alarm_score = 2.0;

  /// The unguarded baseline: one attempt, no railing detector and no
  /// outlier screen (both limits +inf), so the engine predicts every
  /// capture as acquired -- the paper's acquire-and-regress step. A capture
  /// or signature with a non-finite value is still routed (kNonFinite),
  /// since nothing can be predicted from it. TestCell::validate() runs
  /// under this preset; the escape-rate benches test their guard-off flow
  /// on a cell built with it.
  static constexpr GuardPolicy unguarded() {
    GuardPolicy p;
    p.max_attempts = 1;
    p.outlier_threshold = std::numeric_limits<double>::infinity();
    p.rail_fraction_limit = std::numeric_limits<double>::infinity();
    return p;
  }
};

/// What the guard concluded about a device.
enum class DispositionKind {
  kPredicted,             ///< Clean first-attempt capture, prediction valid.
  kPredictedAfterRetry,   ///< Validated only after retry/escalation.
  kRoutedToConventional,  ///< Never validated: send to per-spec ATE test.
};

/// Why the most recent capture attempt was rejected.
enum class CaptureFlaw {
  kNone,       ///< Capture validated.
  kNonFinite,  ///< NaN/Inf sample or signature bin.
  kRailed,     ///< Clipping/railing detected in the time-domain capture.
  kOutlier,    ///< Signature outside the calibration envelope.
};

/// Typed result of one guarded device test. No exceptions on the hot path:
/// every outcome, including "do not trust a prediction for this part", is
/// representable.
struct TestDisposition {
  DispositionKind kind = DispositionKind::kRoutedToConventional;
  std::vector<double> predicted;  ///< Empty iff routed to conventional.
  int attempts = 0;               ///< Capture attempts consumed.
  int captures = 0;               ///< Individual captures consumed.
  double outlier_score = 0.0;     ///< Screen score of the last signature.
  CaptureFlaw last_flaw = CaptureFlaw::kNone;  ///< Last rejection reason.

  bool has_prediction() const {
    return kind != DispositionKind::kRoutedToConventional;
  }

  /// Field by field, doubles by value (the golden digests check bits).
  bool operator==(const TestDisposition&) const = default;
};

/// Outcome of one averaged-capture acquisition attempt (capture_attempt()).
/// `signature` is meaningful only when `flaw == CaptureFlaw::kNone`; a flawed
/// attempt stops at the offending capture, so `captures` may be < n_avg.
struct CaptureAttempt {
  Signature signature;
  CaptureFlaw flaw = CaptureFlaw::kNone;
  int captures = 0;
};

/// One golden-device drift check.
struct DriftStatus {
  double score = 0.0;  ///< This check's outlier score.
  double ewma = 0.0;   ///< Smoothed score.
  bool alarm = false;  ///< Recalibration flag (latched).
};

/// One immutable published calibration: the regression model and the
/// outlier screen fitted on the same training signatures, plus the
/// monotonically increasing version number. Snapshotting this struct pins
/// a consistent (model, screen) pair for the duration of a lot.
struct CalibrationVersion {
  std::shared_ptr<const CalibrationModel> model;
  std::shared_ptr<const OutlierScreen> screen;
  std::uint64_t version = 0;  ///< 0 = never calibrated.
};

}  // namespace stf::sigtest
