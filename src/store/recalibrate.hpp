// Online recalibration: closes the drift loop the guard only latches.
//
// The test cell's golden-device EWMA monitor raises a recalibration
// alarm when the signature path wanders (LO aging, thermal gain drift);
// before this subsystem, the alarm was a flag an operator had to notice.
// The Recalibrator acts on it:
//
//   observe_golden()  -- run the drift monitor AND bank the golden
//                        capture's signature (with the device's known
//                        reference specs) into a rolling refit window, so
//                        the refit trains on the very captures the
//                        monitor already paid for, measured through the
//                        *drifted* path.
//   maybe_recalibrate() -- when the alarm is latched and the window
//                        holds enough rows: fit a candidate model on the
//                        older window rows, gate it on a CV-style
//                        rollback guard (candidate vs current model
//                        scored on the held-out newest rows -- a
//                        regressed candidate is counted and dropped, the
//                        current version stays), and on success hot-swap
//                        model + refreshed outlier screen into the live
//                        runtime and persist the new version to the
//                        CalibrationStore.
//
// The swap is RCU-style (TestCell::swap_calibration): in-flight
// lots finish on the version they started with, the pipeline never
// stops, and the drift monitor resets with the swap. All methods are
// thread-safe and deterministic -- no clocks, no internal threads; run
// recalibrate from a maintenance thread while lots stream (see
// examples/online_recalibration.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/annotations.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/calibration.hpp"
#include "stats/rng.hpp"
#include "store/calibration_store.hpp"

namespace stf::store {

/// Knobs of the refit-and-validate cycle.
struct RecalPolicy {
  /// Rolling golden window capacity (oldest rows evicted first).
  std::size_t window_capacity = 96;
  /// Minimum window rows before a refit is attempted.
  std::size_t min_refit_rows = 24;
  /// Fraction of the window (the newest rows) held out from the candidate
  /// fit and used to score candidate vs current model: the rollback
  /// guard's cross-validation split.
  double holdout_fraction = 0.25;
  /// Swap iff candidate_error <= rollback_tolerance * current_error on
  /// the holdout. 1.0 = the candidate must not regress at all; > 1.0
  /// admits a bounded regression (the current model has usually drifted
  /// badly enough that this never matters).
  double rollback_tolerance = 1.0;
  /// Options of the candidate fit (match the deployed calibration's).
  stf::sigtest::CalibrationOptions cal_options;
};

/// What one recalibration attempt did.
struct RecalReport {
  bool attempted = false;    ///< False: alarm not latched or window short.
  bool swapped = false;      ///< Candidate published as a new version.
  bool rolled_back = false;  ///< Candidate regressed; current kept.
  std::uint64_t version = 0;      ///< Live version after the attempt.
  double candidate_error = 0.0;   ///< Holdout error of the candidate.
  double current_error = 0.0;     ///< Holdout error of the live model.
  std::size_t window_rows = 0;    ///< Window size the attempt saw.
};

/// The drift-loop closer. Owns the rolling golden window; borrows the
/// runtime (shared, non-const: the swap is the one mutation) and
/// optionally a store to persist swapped-in versions.
class Recalibrator {
 public:
  /// `store` may be null (swap without persistence). `key` names where
  /// persisted versions land.
  Recalibrator(std::shared_ptr<stf::sigtest::TestCell> runtime,
               std::shared_ptr<CalibrationStore> store, StoreKey key,
               RecalPolicy policy = {});

  /// Drift-monitor one golden device (exactly TestCell's semantics,
  /// same rng draws) and bank its signature + reference specs as a window
  /// row. `ref_specs` are the golden's characterization-time spec values.
  stf::sigtest::DriftStatus observe_golden(
      const stf::rf::RfDut& golden, const std::vector<double>& ref_specs,
      stf::stats::Rng& rng, const stf::rf::FaultInjector* faults = nullptr,
      std::uint64_t sequence = 0);

  /// Bank a window row directly (tests use this to poison the window and
  /// exercise the rollback guard; sharded studies to feed remote rows).
  void push_window(stf::sigtest::Signature signature,
                   std::vector<double> ref_specs);

  /// Refit iff the drift alarm is latched and the window is deep enough;
  /// otherwise return attempted = false. A successful swap clears the
  /// window (its rows describe the pre-swap chain state); a rollback
  /// keeps it, so more golden evidence can rescue the next attempt.
  RecalReport maybe_recalibrate();

  /// Unconditional refit-and-gate (still needs min_refit_rows).
  RecalReport recalibrate_now();

  std::size_t window_rows() const;
  std::uint64_t refits() const;
  std::uint64_t swaps() const;
  std::uint64_t rollbacks() const;
  const StoreKey& key() const { return key_; }

 private:
  struct WindowRow {
    stf::sigtest::Signature signature;
    std::vector<double> specs;
  };

  std::shared_ptr<stf::sigtest::TestCell> runtime_;
  std::shared_ptr<CalibrationStore> store_;
  StoreKey key_;
  RecalPolicy policy_;
  mutable stf::core::Mutex mutex_;
  std::deque<WindowRow> window_ STF_GUARDED_BY(mutex_);
  std::uint64_t refits_ STF_GUARDED_BY(mutex_) = 0;
  std::uint64_t swaps_ STF_GUARDED_BY(mutex_) = 0;
  std::uint64_t rollbacks_ STF_GUARDED_BY(mutex_) = 0;
};

}  // namespace stf::store
