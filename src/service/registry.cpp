#include "service/registry.hpp"

#include <utility>

#include "circuit/lna900.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"
#include "rf/population.hpp"
#include "sigtest/guard.hpp"
#include "stats/rng.hpp"

namespace stf::service {

namespace {

/// Live runtimes kept; an evicted scenario cold-starts from the store (or
/// refits without one) on its next lot.
constexpr std::size_t kMaxRuntimes = 4;

}  // namespace

RegistryOptions RegistryOptions::lna_defaults() {
  RegistryOptions options;
  options.config = stf::sigtest::SignatureTestConfig::simulation_study();
  options.stimulus = stf::dsp::PwlWaveform::uniform(
      options.config.capture_s,
      {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
  options.spec_names = stf::circuit::LnaSpecs::names();
  options.policy.outlier_threshold = 2.5;
  return options;
}

RuntimeRegistry::RuntimeRegistry(
    RegistryOptions options,
    std::shared_ptr<stf::store::CalibrationStore> store)
    : options_(std::move(options)),
      store_(std::move(store)),
      runtimes_(kMaxRuntimes, "registry.hits", "registry.misses") {
  STF_REQUIRE(options_.stimulus.duration() > 0.0,
              "RuntimeRegistry: empty stimulus");
  STF_REQUIRE(!options_.spec_names.empty(), "RuntimeRegistry: no spec names");
  STF_REQUIRE(options_.calibration_devices >= 2,
              "RuntimeRegistry: calibration_devices < 2");
}

stf::store::StoreKey RuntimeRegistry::store_key(
    const ScenarioSpec& spec) const {
  stf::store::StoreKey key;
  key.scenario = spec.canonical();
  key.device_type = options_.device_type;
  key.temp_bin_c = options_.temp_bin_c;
  return key;
}

std::shared_ptr<stf::sigtest::TestCell> RuntimeRegistry::get(
    const ScenarioSpec& spec) {
  STF_REQUIRE(spec.spread >= 0.0 && spec.spread < 1.0,
              "RuntimeRegistry::get: spread outside [0, 1)");
  return runtimes_.get_or_build(spec.canonical(),
                                [&] { return build(spec); });
}

// stf-analyze: allow(api-contract) -- get() validates spec before dispatch
std::shared_ptr<stf::sigtest::TestCell> RuntimeRegistry::build(
    const ScenarioSpec& spec) {
  auto runtime = std::make_shared<stf::sigtest::TestCell>(
      options_.config, options_.stimulus, options_.spec_names,
      options_.policy, options_.batch, options_.cal_options,
      options_.max_signature_bins);
  const stf::store::StoreKey key = store_key(spec);

  // Cold start: the newest persisted version, when it carries both halves
  // of the epoch (a model-only version cannot serve -- the guard screens
  // every capture -- so it falls through to a scratch fit).
  if (store_ != nullptr && store_->latest_version(key) != 0) {
    const stf::store::StoredCalibration stored = store_->get(key);
    if (stored.screen != nullptr) {
      runtime->swap_calibration(stored.model, stored.screen);
      ++cold_starts_;
      STF_COUNT("registry.cold_starts");
      return runtime;
    }
  }

  // Scratch fit: a deterministic characterization lot at the scenario's
  // spread. Fixed seeds mean every cell that fits this scenario fits the
  // bit-identical model.
  const auto training = stf::rf::make_lna_population(
      options_.calibration_devices, spec.spread, options_.calibration_pop_seed);
  stf::stats::Rng rng(options_.calibration_rng_seed);
  runtime->calibrate(training, rng, options_.calibration_n_avg);
  ++scratch_calibrations_;
  STF_COUNT("registry.scratch_calibrations");
  if (store_ != nullptr) {
    const stf::sigtest::CalibrationVersion cal = runtime->calibration();
    store_->put(key, cal.model, cal.screen);
  }
  return runtime;
}

}  // namespace stf::service
