// Guarded production runtime: capture validation, bounded retest with
// escalating averaging, outlier routing, and golden-device drift monitoring
// layered on FastestRuntime.
//
// FastestRuntime assumes every capture is clean; on a real tester the
// measurement chain degrades (LO drift, digitizer railing, dropped samples,
// intermittent contact -- see rf/faults.hpp) and a corrupted signature
// would be regressed into a confidently wrong spec prediction. The
// GuardedRuntime interposes a validation pipeline in front of the
// regression:
//
//   capture -> finiteness firewall -> railing detector -> signature
//           -> OutlierScreen envelope check -> predict
//
// A suspect capture is retried up to GuardPolicy::max_attempts times with
// escalating capture averaging (transient faults average out; persistent
// ones do not), and a device whose captures never validate is routed to
// conventional per-spec test instead of being predicted -- the disposition
// a production flow can act on. Every outcome is a typed TestDisposition;
// the hot path never throws on bad data. Telemetry counters (guard.retries,
// guard.escalations, guard.routed, guard.drift_alarms) expose the guard's
// activity to the observability layer.
//
// The clean path is bit-compatible with the unguarded runtime: with no
// faults and a capture that validates first try, test_device() consumes
// exactly the same rng draws and produces exactly the same prediction as
// FastestRuntime::test_device.
//
// Calibration versions and hot-swap: the model + outlier screen pair is an
// immutable, versioned CalibrationVersion published RCU-style behind
// shared_ptr<const>. test_device() snapshots the current version once at
// entry, or takes the one a lot pinned, and finishes on it, so a
// concurrent swap_calibration() (the online
// recalibration path, src/store/recalibrate.hpp) never stops or tears an
// in-flight test -- (seed, lot, model-version) stays bit-reproducible.
// Swapping resets the drift monitor: a fresh model must not inherit the
// drifted model's latched alarm, smoothed EWMA, or sample count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "dsp/pwl.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/outlier.hpp"
#include "sigtest/runtime.hpp"
#include "stats/rng.hpp"

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

/// FastestRuntime plus the validation/retest/escalation/drift machinery.
class GuardedRuntime {
 public:
  GuardedRuntime(const SignatureTestConfig& config,
                 stf::dsp::PwlWaveform stimulus,
                 std::vector<std::string> spec_names, GuardPolicy policy = {},
                 CalibrationOptions cal_options = {},
                 std::size_t max_signature_bins = 16);

  // Copy/move snapshot the published calibration version and the drift
  // state under the source's lock; model and screen stay shared (they are
  // immutable). Not supported concurrently with calibrate() on the source.
  GuardedRuntime(const GuardedRuntime& other);
  GuardedRuntime(GuardedRuntime&& other);
  GuardedRuntime& operator=(const GuardedRuntime&) = delete;
  GuardedRuntime& operator=(GuardedRuntime&&) = delete;

  /// Calibrate the regression AND fit the signature-space outlier screen on
  /// the same averaged training signatures (inflated by the single-capture
  /// noise floor, exactly as the calibration model normalizes). Resets the
  /// drift monitor.
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// Guarded production test of one device. `faults` (optional) simulates a
  /// degraded measurement chain; `sequence` is the device's lot position
  /// (drives slow-drift faults). Deterministic: same seed, same scenario,
  /// same disposition, at any STF_THREADS. Snapshots calibration() and
  /// forwards to the version-pinned overload.
  TestDisposition test_device(const stf::rf::RfDut& dut, stf::stats::Rng& rng,
                              const stf::rf::FaultInjector* faults = nullptr,
                              std::uint64_t sequence = 0) const;

  /// Version-pinned test of one device: screens and predicts on `cal` (a
  /// calibration() snapshot of this runtime) instead of the current
  /// version, so every device of a lot runs on the version pinned once at
  /// lot entry (BatchRuntime::test_lot), whatever swaps happen meanwhile.
  TestDisposition test_device(const CalibrationVersion& cal,
                              const stf::rf::RfDut& dut, stf::stats::Rng& rng,
                              const stf::rf::FaultInjector* faults,
                              std::uint64_t sequence) const;

  /// Measure a golden (known-good, stable) device and update the EWMA drift
  /// monitor. When the smoothed outlier score crosses
  /// GuardPolicy::drift_alarm_score the recalibration flag latches: the
  /// signature path itself -- not the device -- has wandered.
  /// `out_signature` (optional) receives the golden capture's signature, so
  /// a recalibration loop can harvest its rolling refit window from the
  /// very captures the monitor already paid for.
  DriftStatus monitor_golden(const stf::rf::RfDut& golden,
                             stf::stats::Rng& rng,
                             const stf::rf::FaultInjector* faults = nullptr,
                             std::uint64_t sequence = 0,
                             Signature* out_signature = nullptr);

  /// Latched drift alarm: predictions are suspect until recalibration.
  bool recalibration_needed() const;
  /// Golden checks folded into the EWMA since the last reset/swap.
  std::uint64_t drift_checks() const;
  /// Clear the drift monitor (after recalibrating the physical path):
  /// latched alarm, smoothed EWMA, and sample count all reset together.
  void reset_drift_monitor();

  /// Snapshot the current calibration version (RCU read side). The
  /// returned model/screen stay valid and immutable for as long as the
  /// caller holds them, regardless of concurrent swaps.
  CalibrationVersion calibration() const;

  /// Hot-swap in a new (model, screen) pair under live traffic and return
  /// the new version number. Validates dimensional compatibility against
  /// the acquirer and spec names before publishing; throws without
  /// swapping on a mismatch. Resets the drift monitor -- the new model
  /// must not be re-alarmed by the old model's history. Callable on a
  /// never-calibrated runtime (the store cold-start path).
  std::uint64_t swap_calibration(
      std::shared_ptr<const CalibrationModel> model,
      std::shared_ptr<const OutlierScreen> screen);

  bool calibrated() const { return runtime_.calibrated(); }
  const FastestRuntime& runtime() const { return runtime_; }
  /// The current outlier screen (null before calibration).
  std::shared_ptr<const OutlierScreen> screen() const;
  const GuardPolicy& policy() const { return policy_; }

  // Building blocks of test_device(). They stay public so the benchmark
  // probes can time each validation step on its own and the tests can pin
  // each one.

  /// Acquire and average n_avg captures of one device, validating each in
  /// the time domain before it contributes. Identical acquisition/fault/rng
  /// sequence to one test_device() attempt.
  CaptureAttempt capture_attempt(const stf::rf::RfDut& dut,
                                 stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t sequence, int n_avg) const;

  /// Signature-space validation: OutlierScreen score against the
  /// calibration envelope. Writes the score to *score (if non-null) even
  /// when rejecting; returns kNonFinite / kOutlier / kNone.
  CaptureFlaw screen_signature(const Signature& signature,
                               double* score) const;

  /// Span variant of screen_signature() for signatures in caller-managed
  /// (arena or matrix-row) storage; the Signature overload forwards here.
  CaptureFlaw screen_signature(std::span<const double> signature,
                               double* score) const;

  /// Epoch-pinned variant: screens against an explicit snapshot's screen
  /// instead of the current one, so a test that started before a hot-swap
  /// keeps validating against the version it started with.
  CaptureFlaw screen_signature(const OutlierScreen& screen,
                               std::span<const double> signature,
                               double* score) const;

  /// Time-domain validation: finiteness + railing. Returns kNone if clean.
  CaptureFlaw inspect_capture(const std::vector<double>& capture) const;

  /// Span variant of inspect_capture() for captures in caller-managed
  /// (arena or matrix-row) storage; the vector overload forwards here.
  CaptureFlaw inspect_capture(std::span<const double> capture) const;

 private:
  /// Reset drift state with cal_mutex_ already held (swap path).
  void reset_drift_monitor_locked() STF_REQUIRES(cal_mutex_);

  FastestRuntime runtime_;
  GuardPolicy policy_;
  // The published calibration version and the drift monitor share one
  // mutex: a swap replaces the (model, screen) pair AND clears the drift
  // history in a single critical section, so no golden check can fold a
  // pre-swap score into a post-swap EWMA.
  mutable stf::core::Mutex cal_mutex_;
  std::shared_ptr<const CalibrationModel> cal_model_
      STF_GUARDED_BY(cal_mutex_);
  std::shared_ptr<const OutlierScreen> screen_ STF_GUARDED_BY(cal_mutex_);
  std::uint64_t cal_version_ STF_GUARDED_BY(cal_mutex_) = 0;
  // Drift-monitor state.
  double drift_ewma_ STF_GUARDED_BY(cal_mutex_) = 0.0;
  bool drift_seeded_ STF_GUARDED_BY(cal_mutex_) = false;
  bool drift_alarm_ STF_GUARDED_BY(cal_mutex_) = false;
  std::uint64_t drift_checks_ STF_GUARDED_BY(cal_mutex_) = 0;
};

}  // namespace stf::sigtest
