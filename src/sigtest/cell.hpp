// The test cell: the paper's FASTest runtime (Fig. 5) as one engine.
//
// Calibration phase: each training device is measured for its reference
// specs (RF ATE / direct simulation) and its signature on the low-cost
// path; a CalibrationModel is fitted, and an OutlierScreen on the same
// averaged signatures. Production phase: one signature acquisition per
// device and a regression evaluation yield every specification -- no RF
// ATE involved.
//
// One engine tests every device. Its GuardPolicy decides how much of the
// guard runs:
//
//   capture -> finiteness firewall -> railing detector -> signature
//           -> OutlierScreen envelope check -> predict
//
// On a real tester the measurement chain degrades (LO drift, digitizer
// railing, dropped samples, intermittent contact -- see rf/faults.hpp). A
// suspect capture is retried up to GuardPolicy::max_attempts times with
// escalating capture averaging (transient faults average out; persistent
// ones do not), and a device whose captures never validate is routed to
// conventional per-spec test instead of being predicted. Every outcome is a
// typed TestDisposition; the hot path never throws on bad data. Telemetry
// counters (guard.retries, guard.escalations, guard.routed,
// guard.drift_alarms) expose the guard's activity.
//
// The unguarded baseline is the preset GuardPolicy::unguarded(): one
// attempt, no railing or outlier rejection, so the paper's
// acquire-and-regress step predicts every capture as acquired. validate()
// runs its devices under that preset whatever the cell's own policy, and
// the escape-rate benches build a preset cell for their guard-off flow.
// Under every policy a capture or signature with a non-finite value is
// routed (kNonFinite): there is no prediction to make from it. With no
// faults and a capture that validates first try, any policy consumes the
// same rng draws and predicts the same bits.
//
// test_lot() runs the engine as one core::parallel_for over the lot,
// a pool thread claiming BatchOptions::batch_size devices per chunk. The
// thread tests its chunk attempt by attempt: for each capture of an
// attempt, every device of the chunk still in play captures together, so
// the board runs them one device per vector lane, and retests regroup by
// attempt. Faults, inspection, the signature, screening and prediction run
// per device. test_lot spawns no threads: concurrent callers take turns on
// the pool like any parallel_for caller.
//
// Determinism contract: lot dispositions are BIT-IDENTICAL, at every
// STF_THREADS setting and batch size, to serial_reference():
//
//   for (i = 0; i < lot.size(); ++i) {
//     stats::Rng child = rng.derive(first_sequence + i);
//     cell.test_device(*lot[i], child, faults, first_sequence + i);
//   }
//
// Each device owns the derived child stream and its fault sequence number,
// so no rng draw ever crosses a device boundary, and test_device is the
// same attempt loop over that one device. Tests assert this equivalence on
// clean and faulted lots, and golden digests pin the dispositions.
//
// Calibration versions and hot-swap: the (model, screen) pair is one
// immutable CalibrationVersion, published RCU-style under the cell's one
// mutex by calibrate() and swap_calibration(). test_device() snapshots it
// once per device and test_lot() once per lot, so a concurrent swap (the
// online recalibration path, src/store/recalibrate.hpp) never stops or
// tears an in-flight test: (seed, lot, model version) stays
// bit-reproducible. The golden-device drift monitor shares the mutex, and
// publishing a version resets it: a fresh model must not inherit the
// drifted model's latched alarm, smoothed EWMA, or sample count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "dsp/pwl.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/guard.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Knobs of the lot engine.
struct BatchOptions {
  /// Devices a pool thread claims at a time. Larger chunks cut dispatch
  /// overhead and fill more device lanes per capture; smaller ones balance
  /// uneven (retest-heavy) lots better. A lot of at most batch_size devices
  /// runs inline on the caller.
  std::size_t batch_size = 16;
};

/// One tested lot: per-device dispositions (lot order) plus outcome tallies.
struct LotResult {
  std::vector<TestDisposition> dispositions;
  std::size_t predicted = 0;  ///< kPredicted (clean first attempt).
  std::size_t retried = 0;    ///< kPredictedAfterRetry.
  std::size_t routed = 0;     ///< kRoutedToConventional.
  /// Calibration version the whole lot was tested on. test_lot pins the
  /// version once at entry, so a hot-swap mid-lot never mixes versions:
  /// (seed, lot, model_version) identifies the bit-exact reference.
  std::uint64_t model_version = 0;

  std::size_t devices() const { return dispositions.size(); }
};

/// A configured signature path, optimized stimulus, guard policy and
/// published calibration: everything a production test cell runs.
class TestCell {
 public:
  TestCell(const SignatureTestConfig& config, stf::dsp::PwlWaveform stimulus,
           std::vector<std::string> spec_names, GuardPolicy policy = {},
           BatchOptions batch = {}, CalibrationOptions cal_options = {},
           std::size_t max_signature_bins = 16);

  /// Snapshots the source's published version and drift state under its
  /// lock; model and screen stay shared (they are immutable).
  TestCell(const TestCell& other);
  TestCell& operator=(const TestCell&) = delete;

  // --- Calibration ---------------------------------------------------------

  /// One-time calibration on the training devices. Signatures are acquired
  /// with noise from rng (the real tester is noisy during calibration too);
  /// n_avg captures per device are averaged -- calibration is a one-time
  /// effort, so spending extra captures there is standard practice and
  /// removes the errors-in-variables bias a noisy regressor suffers. The
  /// outlier screen is fitted on the same averaged signatures, its per-bin
  /// variance inflated by the single-capture noise floor exactly as the
  /// model normalizes. Publishes both as one new version.
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// Hot-swap in a new (model, screen) pair under live traffic and return
  /// the new version number. Both must be fitted and match the acquirer's
  /// signature length, and the model the spec count; anything else throws
  /// without publishing. Callable on a never-calibrated cell (the store
  /// cold-start path).
  std::uint64_t swap_calibration(std::shared_ptr<const CalibrationModel> model,
                                 std::shared_ptr<const OutlierScreen> screen);

  /// Snapshot the published version (RCU read side). The returned model and
  /// screen stay valid and immutable for as long as the caller holds them,
  /// whatever swaps happen meanwhile.
  CalibrationVersion calibration() const;
  /// The published model / screen (null before calibration).
  std::shared_ptr<const CalibrationModel> model() const;
  std::shared_ptr<const OutlierScreen> screen() const;
  bool calibrated() const { return model() != nullptr; }

  // --- Production test -----------------------------------------------------

  /// Production test of one device under the cell's policy, on the version
  /// published at entry. `faults` (optional) simulates a degraded
  /// measurement chain; `sequence` is the device's lot position.
  /// Deterministic: same seed, same scenario, same disposition, at any
  /// STF_THREADS.
  TestDisposition test_device(const stf::rf::RfDut& dut, stf::stats::Rng& rng,
                              const stf::rf::FaultInjector* faults = nullptr,
                              std::uint64_t sequence = 0) const;

  /// Test a whole lot on the version published at entry. `rng` is the lot's
  /// base stream (device i uses rng.derive(first_sequence + i)); `faults`
  /// (optional) corrupts captures with fault sequence number
  /// first_sequence + i. `batch` overrides the constructor's options for
  /// this call; batch size is a throughput knob, never a results knob.
  /// Returns dispositions in lot order, bit-identical to serial_reference().
  LotResult test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                     const stf::stats::Rng& rng,
                     const stf::rf::FaultInjector* faults = nullptr,
                     std::uint64_t first_sequence = 0,
                     std::optional<BatchOptions> batch = std::nullopt) const;

  /// The same over a characterized population.
  LotResult test_lot(const std::vector<stf::rf::DeviceRecord>& lot,
                     const stf::stats::Rng& rng,
                     const stf::rf::FaultInjector* faults = nullptr,
                     std::uint64_t first_sequence = 0) const;

  /// Test every validation device under GuardPolicy::unguarded(), whatever
  /// this cell's policy, in order on one shared stream and on the version
  /// published at entry, and compare the predictions against their
  /// reference specs. A device the engine cannot predict (a non-finite
  /// capture) is a contract failure.
  ValidationReport validate(const std::vector<stf::rf::DeviceRecord>& devices,
                            stf::stats::Rng& rng) const;

  // --- Drift monitor -------------------------------------------------------

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
  /// Golden checks folded into the EWMA since the last reset/publication.
  std::uint64_t drift_checks() const;
  /// Clear the drift monitor (after recalibrating the physical path):
  /// latched alarm, smoothed EWMA, and sample count all reset together.
  void reset_drift_monitor();

  // --- Building blocks of the test, under the cell's policy ----------------
  // Public so the benchmark probes can time each validation step on its
  // own.

  /// Acquire and average n_avg captures of one device, validating each in
  /// the time domain before it contributes. The acquisition, fault and rng
  /// sequence and the signature of one test_device() attempt.
  CaptureAttempt capture_attempt(const stf::rf::RfDut& dut,
                                 stf::stats::Rng& rng,
                                 const stf::rf::FaultInjector* faults,
                                 std::uint64_t sequence, int n_avg) const;

  /// Signature-space validation against the published screen. Writes the
  /// score to *score (if non-null) even when rejecting; returns kNonFinite /
  /// kOutlier / kNone.
  CaptureFlaw screen_signature(std::span<const double> signature,
                               double* score) const;

  /// Time-domain validation: finiteness + railing. Returns kNone if clean.
  CaptureFlaw inspect_capture(std::span<const double> capture) const;

  // --- Configuration -------------------------------------------------------

  const SignatureAcquirer& acquirer() const { return acquirer_; }
  const stf::dsp::PwlWaveform& stimulus() const { return stimulus_; }
  const std::vector<std::string>& spec_names() const { return spec_names_; }
  const GuardPolicy& policy() const { return policy_; }
  const BatchOptions& options() const { return batch_; }

  // Benchmark-only shims: perfbench/ still reaches the cell through the
  // accessors of the class stack it replaced, and it changes only with the
  // benchmark. Nothing else may call them.
  const TestCell& guarded() const { return *this; }
  TestCell& guarded() { return *this; }
  const TestCell& runtime() const { return *this; }

 private:
  /// A golden-device EWMA; value-initialized means reset.
  struct DriftState {
    double ewma = 0.0;
    bool seeded = false;
    bool alarm = false;
    std::uint64_t checks = 0;
  };

  /// Publish (model, screen) as the next version and reset the drift
  /// monitor, in one critical section. Returns the new version.
  std::uint64_t publish(std::shared_ptr<const CalibrationModel> model,
                        std::shared_ptr<const OutlierScreen> screen);

  /// The test of a set of devices under `policy` on `cal`, attempt by
  /// attempt: for each capture of an attempt, every device still in play
  /// captures together (SignatureAcquirer::raw_capture_lanes), and faults,
  /// inspection, the signature, screening and prediction then run per
  /// device. Device i draws from rngs[i] and has fault sequence
  /// first_sequence + i; out[i] is what testing it alone gives, and so is
  /// rngs[i]'s position afterwards. Scratch comes from the per-thread
  /// capture arena, proportional to the set size.
  void test_devices(const GuardPolicy& policy, const CalibrationVersion& cal,
                    std::span<const stf::rf::RfDut* const> duts,
                    std::span<stf::stats::Rng> rngs,
                    const stf::rf::FaultInjector* faults,
                    std::uint64_t first_sequence,
                    std::span<TestDisposition> out) const;

  /// One capture's part of an attempt after the board: faults (sequence
  /// and rng), the time-domain inspection under `policy`, and -- if it
  /// validates -- its signature (through `scratch`) added into `sum`.
  /// Returns the flaw.
  CaptureFlaw take_capture(const GuardPolicy& policy,
                           std::span<double> capture,
                           const stf::rf::FaultInjector* faults,
                           std::uint64_t sequence, stf::stats::Rng& rng,
                           std::span<double> scratch,
                           std::span<double> sum) const;

  SignatureAcquirer acquirer_;
  stf::dsp::PwlWaveform stimulus_;
  std::vector<std::string> spec_names_;
  GuardPolicy policy_;
  BatchOptions batch_;
  CalibrationOptions cal_options_;
  // The published version and the drift monitor share one mutex, so a
  // publication replaces the (model, screen) pair AND clears the drift
  // history at once: no golden check folds a pre-swap score into a
  // post-swap EWMA, and no reader sees a model from one version with the
  // screen of another.
  mutable stf::core::Mutex mutex_;
  CalibrationVersion cal_ STF_GUARDED_BY(mutex_);
  DriftState drift_ STF_GUARDED_BY(mutex_);
};

/// The serial reference of the determinism contract: test_device() on each
/// device of `lot` in order, device i on rng.derive(first_sequence + i)
/// with fault sequence first_sequence + i. test_lot() on the same version
/// returns exactly these dispositions.
std::vector<TestDisposition> serial_reference(
    const TestCell& cell, const std::vector<const stf::rf::RfDut*>& lot,
    const stf::stats::Rng& rng, const stf::rf::FaultInjector* faults = nullptr,
    std::uint64_t first_sequence = 0);

/// The same over a characterized population.
std::vector<TestDisposition> serial_reference(
    const TestCell& cell, const std::vector<stf::rf::DeviceRecord>& lot,
    const stf::stats::Rng& rng, const stf::rf::FaultInjector* faults = nullptr,
    std::uint64_t first_sequence = 0);

}  // namespace stf::sigtest
