// RuntimeRegistry: scenario -> calibrated TestCell, backed by the
// versioned calibration store.
//
// The single-runtime server binds one calibration to the whole process:
// every scenario a client names is tested through whatever model the
// operator fitted at startup. The registry instead materializes one
// runtime per scenario on demand and answers "where does its calibration
// come from?" with a two-step policy:
//
//   1. Cold start from the store: when a CalibrationStore is attached and
//      holds a version for (scenario, device_type, temp_bin), the newest
//      persisted (model, screen) pair is hot-swapped into a fresh runtime
//      -- no characterization lot, no fitting, just a load. This is how a
//      test cell rejoins the floor after a restart without losing the
//      drift loop's accumulated recalibrations.
//   2. Fit from scratch: otherwise the registry characterizes a
//      deterministic calibration population for the scenario's spread
//      (fixed population/rng seeds, so every cell fits the identical
//      model) and, when a store is attached, persists the result as
//      version 1 for the next cold start.
//
// Runtimes are kept in a core::LruCache: a scenario is fitted once however
// many lots race for it, outside the cache lock, so lots on other
// scenarios keep being served meanwhile; an evicted runtime stays alive for
// any lot still running against it (shared_ptr). The registry hands out
// NON-const runtimes: the maintenance plane (store::Recalibrator)
// hot-swaps their calibration, while the serving path only calls the
// const, reentrant test_lot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/lru_cache.hpp"
#include "dsp/pwl.hpp"
#include "service/scenario.hpp"
#include "sigtest/cell.hpp"
#include "store/calibration_store.hpp"

namespace stf::service {

/// The recipe every registry-built runtime shares (scenarios differ only
/// in their population, never in the measurement chain).
struct RegistryOptions {
  stf::sigtest::SignatureTestConfig config;
  stf::dsp::PwlWaveform stimulus;
  std::vector<std::string> spec_names;
  stf::sigtest::GuardPolicy policy;
  stf::sigtest::BatchOptions batch;
  stf::sigtest::CalibrationOptions cal_options;
  std::size_t max_signature_bins = 16;

  /// Scratch-calibration recipe: devices in the characterization lot, the
  /// population seed (distinct from any serving population's pop seed),
  /// the fitting rng seed, and the capture-averaging depth.
  std::size_t calibration_devices = 40;
  std::uint64_t calibration_pop_seed = 21;
  std::uint64_t calibration_rng_seed = 7;
  int calibration_n_avg = 8;

  /// Store-key fields of this cell (the scenario field comes per-lookup).
  std::string device_type = "lna900";
  int temp_bin_c = 25;

  /// The canonical LNA study recipe (simulation_study config, the paper's
  /// 9-breakpoint stimulus, LnaSpecs names): what tests, examples and the
  /// CLI use unless they override knobs.
  static RegistryOptions lna_defaults();
};

/// Bounded LRU of per-scenario calibrated runtimes with store-backed cold
/// start. Thread-safe; a miss builds once per scenario, outside the cache
/// lock, while the other callers of that scenario wait for it.
class RuntimeRegistry {
 public:
  /// `store` may be null: the registry then always fits from scratch and
  /// never persists.
  explicit RuntimeRegistry(
      RegistryOptions options,
      std::shared_ptr<stf::store::CalibrationStore> store = nullptr);

  /// The calibrated runtime for `spec`: cached, cold-started from the
  /// store, or fitted from scratch (in that order).
  std::shared_ptr<stf::sigtest::TestCell> get(const ScenarioSpec& spec);

  /// Where `spec`'s calibrations live in the store.
  stf::store::StoreKey store_key(const ScenarioSpec& spec) const;

  std::size_t size() const { return runtimes_.size(); }
  const std::shared_ptr<stf::store::CalibrationStore>& store() const {
    return store_;
  }
  /// Runtimes calibrated from a persisted store version (tests assert the
  /// restart path loads instead of refitting).
  std::uint64_t cold_starts() const { return cold_starts_.load(); }
  /// Runtimes calibrated from scratch.
  std::uint64_t scratch_calibrations() const {
    return scratch_calibrations_.load();
  }

 private:
  std::shared_ptr<stf::sigtest::TestCell> build(const ScenarioSpec& spec);

  RegistryOptions options_;
  std::shared_ptr<stf::store::CalibrationStore> store_;
  stf::core::LruCache<stf::sigtest::TestCell> runtimes_;
  std::atomic<std::uint64_t> cold_starts_{0};
  std::atomic<std::uint64_t> scratch_calibrations_{0};
};

}  // namespace stf::service
