#include "store/recalibrate.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"
#include "linalg/matrix.hpp"

namespace stf::store {

Recalibrator::Recalibrator(std::shared_ptr<stf::sigtest::TestCell> runtime,
                           std::shared_ptr<CalibrationStore> store,
                           StoreKey key, RecalPolicy policy)
    : runtime_(std::move(runtime)),
      store_(std::move(store)),
      key_(std::move(key)),
      policy_(policy) {
  STF_REQUIRE(runtime_ != nullptr, "Recalibrator: null runtime");
  STF_REQUIRE(policy_.window_capacity >= policy_.min_refit_rows,
              "Recalibrator: window_capacity < min_refit_rows");
  STF_REQUIRE(policy_.min_refit_rows >= 4,
              "Recalibrator: min_refit_rows < 4");
  STF_REQUIRE(policy_.holdout_fraction > 0.0 && policy_.holdout_fraction < 1.0,
              "Recalibrator: holdout_fraction outside (0, 1)");
  STF_REQUIRE(policy_.rollback_tolerance > 0.0,
              "Recalibrator: rollback_tolerance <= 0");
}

stf::sigtest::DriftStatus Recalibrator::observe_golden(
    const stf::rf::RfDut& golden, const std::vector<double>& ref_specs,
    stf::stats::Rng& rng, const stf::rf::FaultInjector* faults,
    std::uint64_t sequence) {
  STF_REQUIRE(!ref_specs.empty(), "Recalibrator::observe_golden: no specs");
  stf::sigtest::Signature signature;
  const stf::sigtest::DriftStatus status = runtime_->monitor_golden(
      golden, rng, faults, sequence, &signature);
  push_window(std::move(signature), ref_specs);
  return status;
}

void Recalibrator::push_window(stf::sigtest::Signature signature,
                               std::vector<double> ref_specs) {
  STF_REQUIRE(!signature.empty() && !ref_specs.empty(),
              "Recalibrator::push_window: empty row");
  const stf::core::LockGuard lock(mutex_);
  if (!window_.empty())
    STF_REQUIRE(signature.size() == window_.front().signature.size() &&
                    ref_specs.size() == window_.front().specs.size(),
                "Recalibrator::push_window: row shape mismatch");
  window_.push_back(WindowRow{std::move(signature), std::move(ref_specs)});
  while (window_.size() > policy_.window_capacity) window_.pop_front();
  STF_RECORD("recal.window_rows", static_cast<double>(window_.size()));
}

std::size_t Recalibrator::window_rows() const {
  const stf::core::LockGuard lock(mutex_);
  return window_.size();
}

std::uint64_t Recalibrator::refits() const {
  const stf::core::LockGuard lock(mutex_);
  return refits_;
}

std::uint64_t Recalibrator::swaps() const {
  const stf::core::LockGuard lock(mutex_);
  return swaps_;
}

std::uint64_t Recalibrator::rollbacks() const {
  const stf::core::LockGuard lock(mutex_);
  return rollbacks_;
}

RecalReport Recalibrator::maybe_recalibrate() {
  if (!runtime_->recalibration_needed() ||
      window_rows() < policy_.min_refit_rows) {
    RecalReport report;
    report.window_rows = window_rows();
    report.version = runtime_->calibration().version;
    return report;
  }
  return recalibrate_now();
}

RecalReport Recalibrator::recalibrate_now() {
  STF_TRACE_SPAN("recal.refit");
  // Snapshot the window so the (possibly long) fit runs without holding
  // the lock against concurrent observe_golden() calls.
  std::vector<WindowRow> rows;
  {
    const stf::core::LockGuard lock(mutex_);
    rows.assign(window_.begin(), window_.end());
  }
  const stf::sigtest::CalibrationVersion current = runtime_->calibration();

  RecalReport report;
  report.window_rows = rows.size();
  report.version = current.version;
  if (current.model == nullptr || rows.size() < policy_.min_refit_rows)
    return report;

  // Cross-validation split: the candidate trains on the OLDER rows and is
  // judged -- against the live model, on the same scale -- on the newest
  // held-out rows. Chronological (not random) splitting is deliberate:
  // the newest goldens are the best proxy for the captures the candidate
  // would face right after the swap.
  const std::size_t n = rows.size();
  const std::size_t holdout = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) *
                                  policy_.holdout_fraction));
  const std::size_t train = n - holdout;
  if (train < 2) return report;
  STF_ASSERT(!rows.empty(), "refit snapshot empty despite min_refit_rows");
  const std::size_t m = rows.front().signature.size();
  const std::size_t n_specs = rows.front().specs.size();

  stf::la::Matrix train_sig(train, m), train_specs(train, n_specs);
  stf::la::Matrix hold_sig(holdout, m), hold_specs(holdout, n_specs);
  for (std::size_t i = 0; i < train; ++i) {
    train_sig.set_row(i, rows[i].signature);
    train_specs.set_row(i, rows[i].specs);
  }
  for (std::size_t i = 0; i < holdout; ++i) {
    hold_sig.set_row(i, rows[train + i].signature);
    hold_specs.set_row(i, rows[train + i].specs);
  }

  report.attempted = true;
  // Age of the outgoing model, in golden checks since its swap-in (the
  // drift monitor resets on swap, so drift_checks() is exactly that).
  STF_RECORD("recal.model_age_checks",
             static_cast<double>(runtime_->drift_checks()));
  STF_COUNT("recal.refits");
  stf::sigtest::CalibrationModel candidate(policy_.cal_options);
  candidate.fit(train_sig, train_specs);
  report.candidate_error =
      stf::sigtest::normalized_rms_error(candidate, hold_sig, hold_specs);
  report.current_error = stf::sigtest::normalized_rms_error(
      *current.model, hold_sig, hold_specs);

  // The rollback guard: a candidate that predicts the held-out goldens
  // worse than the model already in production is never published.
  const bool accept =
      std::isfinite(report.candidate_error) &&
      report.candidate_error <=
          policy_.rollback_tolerance * report.current_error;
  if (accept) {
    // The screen refits on the FULL window: production captures are
    // single captures exactly like the window rows, so the row-to-row
    // variance already contains the capture noise floor.
    stf::la::Matrix all_sig(n, m);
    for (std::size_t i = 0; i < n; ++i)
      all_sig.set_row(i, rows[i].signature);
    auto screen = std::make_shared<stf::sigtest::OutlierScreen>();
    screen->fit(all_sig);
    auto model = std::make_shared<const stf::sigtest::CalibrationModel>(
        std::move(candidate));
    report.version = runtime_->swap_calibration(model, screen);
    report.swapped = true;
    STF_COUNT("recal.swaps");
    STF_RECORD("recal.model_version", static_cast<double>(report.version));
    if (store_ != nullptr) store_->put(key_, model, screen);
  } else {
    report.rolled_back = true;
    STF_COUNT("recal.rollbacks");
  }

  const stf::core::LockGuard lock(mutex_);
  ++refits_;
  if (report.swapped) {
    ++swaps_;
    // A successful swap retires the window: its rows were measured
    // through the PRE-swap chain state, so folding them into the next
    // refit would train version N+2 on data version N+1 already absorbed.
    // Each published version accumulates its own fresh window.
    window_.clear();
  }
  if (report.rolled_back) ++rollbacks_;
  return report;
}

}  // namespace stf::store
