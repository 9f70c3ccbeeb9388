// Lot test-cell runtime: tests a whole device lot device-parallel on the
// shared worker pool.
//
// A production test cell does not see one device at a time: handlers index
// strips/trays of parts, so the natural unit is the lot. BatchRuntime keeps
// GuardedRuntime's per-device semantics (finiteness firewall, railing,
// outlier screen, bounded retest with escalating averaging, routing) and
// runs them as one core::parallel_for over the lot's devices, claiming
// BatchOptions::batch_size devices per chunk. Every device, retests
// included, runs on whichever pool thread claimed it, so a faulted lot's
// retest loops spread over every core. test_lot spawns no threads:
// concurrent callers take turns on the pool like any parallel_for caller.
//
// Determinism contract: dispositions are BIT-IDENTICAL, at every
// STF_THREADS setting and batch size, to the serial reference
//
//   for (i = 0; i < lot.size(); ++i) {
//     stats::Rng child = rng.derive(first_sequence + i);
//     guarded().test_device(*lot[i], child, faults, first_sequence + i);
//   }
//
// Each device owns the derived child stream rng.derive(first_sequence + i)
// and its fault sequence number, so no rng draw ever crosses a device
// boundary, and the lot runs that very loop body against the calibration
// version pinned at lot entry. Tests assert this equivalence on clean and
// faulted lots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dsp/pwl.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/guard.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Knobs of the lot engine.
struct BatchOptions {
  /// Devices a pool thread claims at a time. Larger chunks cut dispatch
  /// overhead; smaller ones balance uneven (retest-heavy) lots better. A
  /// lot of at most batch_size devices runs inline on the caller.
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

/// GuardedRuntime plus the device-parallel lot engine.
class BatchRuntime {
 public:
  BatchRuntime(const SignatureTestConfig& config,
               stf::dsp::PwlWaveform stimulus,
               std::vector<std::string> spec_names, GuardPolicy policy = {},
               BatchOptions batch = {}, CalibrationOptions cal_options = {},
               std::size_t max_signature_bins = 16);

  /// Calibrate the wrapped guarded runtime (regression + outlier screen).
  void calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 8);

  /// Test a whole lot. `rng` is the lot's base stream (device i uses the
  /// derived child rng.derive(first_sequence + i)); `faults` (optional)
  /// corrupts captures with fault sequence number first_sequence + i.
  /// Returns dispositions in lot order, bit-identical to the serial
  /// per-device reference in the header comment at any STF_THREADS.
  LotResult test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                     const stf::stats::Rng& rng,
                     const stf::rf::FaultInjector* faults = nullptr,
                     std::uint64_t first_sequence = 0) const;

  /// Convenience overload over a characterized population.
  LotResult test_lot(const std::vector<stf::rf::DeviceRecord>& lot,
                     const stf::stats::Rng& rng,
                     const stf::rf::FaultInjector* faults = nullptr,
                     std::uint64_t first_sequence = 0) const;

  /// Per-call batching override: same dispositions as every other overload
  /// (batch size is a throughput knob, never a results knob -- tests assert
  /// the invariance), with the pool claims sized by `batch` instead of the
  /// constructor-time options. The service front end uses this to honor a
  /// request's batch field on a shared runtime.
  LotResult test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                     const stf::stats::Rng& rng,
                     const stf::rf::FaultInjector* faults,
                     std::uint64_t first_sequence,
                     const BatchOptions& batch) const;

  bool calibrated() const { return guarded_.calibrated(); }
  const GuardedRuntime& guarded() const { return guarded_; }
  /// Mutable guard access for the maintenance plane (drift monitoring and
  /// calibration hot-swap, src/store/recalibrate.hpp). test_lot stays
  /// const and concurrent: it pins a calibration snapshot at entry, so a
  /// swap through this reference never disturbs an in-flight lot.
  GuardedRuntime& guarded() { return guarded_; }
  const BatchOptions& options() const { return batch_; }

 private:
  GuardedRuntime guarded_;
  BatchOptions batch_;
};

}  // namespace stf::sigtest
