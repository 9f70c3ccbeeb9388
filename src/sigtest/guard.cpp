#include "sigtest/guard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::sigtest {

GuardedRuntime::GuardedRuntime(const SignatureTestConfig& config,
                               stf::dsp::PwlWaveform stimulus,
                               std::vector<std::string> spec_names,
                               GuardPolicy policy,
                               CalibrationOptions cal_options,
                               std::size_t max_signature_bins)
    : runtime_(config, std::move(stimulus), std::move(spec_names),
               cal_options, max_signature_bins),
      policy_(policy) {
  STF_REQUIRE(policy_.max_attempts >= 1, "GuardedRuntime: max_attempts < 1");
  STF_REQUIRE(policy_.escalation_averages >= 1,
              "GuardedRuntime: escalation_averages < 1");
  // The last attempt averages escalation_averages^(max_attempts - 1)
  // captures, an int count: it must not overflow.
  std::int64_t last_attempt_captures = 1;
  for (int a = 1; a < policy_.max_attempts && policy_.escalation_averages > 1;
       ++a) {
    last_attempt_captures *= policy_.escalation_averages;
    STF_REQUIRE(last_attempt_captures <= std::numeric_limits<int>::max(),
                "GuardedRuntime: escalation_averages^(max_attempts - 1) "
                "overflows int");
  }
  STF_REQUIRE(policy_.outlier_threshold > 0.0,
              "GuardedRuntime: outlier_threshold <= 0");
  STF_REQUIRE(policy_.rail_fraction_limit > 0.0,
              "GuardedRuntime: rail_fraction_limit <= 0");
  STF_REQUIRE(policy_.drift_ewma_alpha > 0.0 && policy_.drift_ewma_alpha <= 1.0,
              "GuardedRuntime: drift_ewma_alpha outside (0, 1]");
}

// stf-analyze: allow(api-contract) -- copying an already-validated object
GuardedRuntime::GuardedRuntime(const GuardedRuntime& other)
    : runtime_(other.runtime_), policy_(other.policy_) {
  const stf::core::LockGuard lock(other.cal_mutex_);
  cal_model_ = other.cal_model_;
  screen_ = other.screen_;
  cal_version_ = other.cal_version_;
  drift_ewma_ = other.drift_ewma_;
  drift_seeded_ = other.drift_seeded_;
  drift_alarm_ = other.drift_alarm_;
  drift_checks_ = other.drift_checks_;
}

// stf-analyze: allow(api-contract) -- moving an already-validated object
GuardedRuntime::GuardedRuntime(GuardedRuntime&& other)
    : runtime_(std::move(other.runtime_)), policy_(other.policy_) {
  const stf::core::LockGuard lock(other.cal_mutex_);
  cal_model_ = std::move(other.cal_model_);
  screen_ = std::move(other.screen_);
  cal_version_ = other.cal_version_;
  drift_ewma_ = other.drift_ewma_;
  drift_seeded_ = other.drift_seeded_;
  drift_alarm_ = other.drift_alarm_;
  drift_checks_ = other.drift_checks_;
}

void GuardedRuntime::calibrate(
    const std::vector<stf::rf::DeviceRecord>& training, stf::stats::Rng& rng,
    int n_avg) {
  STF_REQUIRE(training.size() >= 2, "GuardedRuntime::calibrate: need >= 2");
  runtime_.calibrate(training, rng, n_avg);
  // The screen sees the same averaged signatures the regression trained on,
  // with the per-bin variance inflated by the single-capture noise floor so
  // production (single-capture) scores are not biased outward.
  auto screen = std::make_shared<OutlierScreen>();
  screen->fit(runtime_.calibration_signatures(),
              runtime_.capture_noise_var());
  const stf::core::LockGuard lock(cal_mutex_);
  cal_model_ = runtime_.model();
  screen_ = std::move(screen);
  ++cal_version_;
  reset_drift_monitor_locked();
}

CalibrationVersion GuardedRuntime::calibration() const {
  const stf::core::LockGuard lock(cal_mutex_);
  return CalibrationVersion{cal_model_, screen_, cal_version_};
}

std::shared_ptr<const OutlierScreen> GuardedRuntime::screen() const {
  const stf::core::LockGuard lock(cal_mutex_);
  return screen_;
}

std::uint64_t GuardedRuntime::swap_calibration(
    std::shared_ptr<const CalibrationModel> model,
    std::shared_ptr<const OutlierScreen> screen) {
  STF_TRACE_SPAN("guard.swap_calibration");
  STF_REQUIRE(screen != nullptr,
              "GuardedRuntime::swap_calibration: null screen");
  STF_REQUIRE(screen->fitted(),
              "GuardedRuntime::swap_calibration: unfitted screen");
  STF_REQUIRE(screen->signature_length() ==
                  runtime_.acquirer().signature_length(),
              "GuardedRuntime::swap_calibration: screen length mismatch");
  // set_model validates the model's own compatibility (fitted, signature
  // length, spec count) and throws before anything is published.
  runtime_.set_model(model);
  const stf::core::LockGuard lock(cal_mutex_);
  cal_model_ = std::move(model);
  screen_ = std::move(screen);
  ++cal_version_;
  // A freshly swapped-in model must not inherit the drifted model's latched
  // alarm, smoothed EWMA, or sample count: the whole point of the swap is
  // that the path is considered recalibrated.
  reset_drift_monitor_locked();
  STF_COUNT("guard.calibration_swaps");
  return cal_version_;
}

CaptureFlaw GuardedRuntime::inspect_capture(
    const std::vector<double>& capture) const {
  return inspect_capture(std::span<const double>(capture));
}

CaptureFlaw GuardedRuntime::inspect_capture(
    std::span<const double> capture) const {
  STF_REQUIRE(!capture.empty(),
              "GuardedRuntime::inspect_capture: empty capture");
  double peak = 0.0;
  for (double v : capture) {
    if (!std::isfinite(v)) return CaptureFlaw::kNonFinite;
    peak = std::max(peak, std::abs(v));
  }
  // All-zero captures carry no railing evidence; the outlier screen decides.
  if (peak <= 0.0) return CaptureFlaw::kNone;
  // Railing: a clipped front-end pins samples to the same extreme code, so
  // the capture's maximum is attained many times *exactly*. A clean noisy
  // capture attains its maximum essentially once (additive noise breaks
  // ties), so exact-equality counting separates the two without knowing the
  // rail voltage.
  const double rail = peak * (1.0 - 1e-9);
  std::size_t at_rail = 0;
  for (double v : capture)
    if (std::abs(v) >= rail) ++at_rail;
  if (static_cast<double>(at_rail) >
      policy_.rail_fraction_limit * static_cast<double>(capture.size()))
    return CaptureFlaw::kRailed;
  return CaptureFlaw::kNone;
}

CaptureFlaw GuardedRuntime::take_capture(std::span<double> capture,
                                         const stf::rf::FaultInjector* faults,
                                         std::uint64_t sequence,
                                         stf::stats::Rng& rng,
                                         std::span<double> scratch,
                                         std::span<double> sum) const {
  STF_REQUIRE(scratch.size() == sum.size(),
              "GuardedRuntime: signature length mismatch");
  const SignatureAcquirer& acq = runtime_.acquirer();
  if (faults != nullptr)
    faults->apply(capture, acq.config().digitizer.fs_hz, sequence, rng);
  const CaptureFlaw flaw = inspect_capture(capture);
  if (flaw != CaptureFlaw::kNone) return flaw;
  acq.signature_into(capture, scratch);
  for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += scratch[j];
  return CaptureFlaw::kNone;
}

CaptureAttempt GuardedRuntime::capture_attempt(
    const stf::rf::RfDut& dut, stf::stats::Rng& rng,
    const stf::rf::FaultInjector* faults, std::uint64_t sequence,
    int n_avg) const {
  STF_REQUIRE(n_avg >= 1, "GuardedRuntime::capture_attempt: n_avg < 1");
  const SignatureAcquirer& acq = runtime_.acquirer();
  const std::size_t m = acq.signature_length();

  // Acquire (and average) this attempt's captures, validating each one in
  // the time domain before it contributes to the signature. A flawed
  // capture aborts the attempt immediately (no division): its signature is
  // never consumed. The capture and per-capture signature live in the
  // per-thread arena, so steady-state attempts touch the heap only for the
  // returned (m-element) averaged signature.
  CaptureAttempt a;
  a.signature.assign(m, 0.0);
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> capture(
      acq.capture_length(), 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> sig(
      m, 0.0, stf::core::ArenaAllocator<double>(&arena));
  const std::span<double> cap_span(capture.data(), capture.size());
  for (int c = 0; c < n_avg; ++c) {
    acq.raw_capture_into(dut, runtime_.stimulus(), &rng, cap_span);
    ++a.captures;
    a.flaw = take_capture(cap_span, faults, sequence, rng,
                          {sig.data(), sig.size()}, a.signature);
    if (a.flaw != CaptureFlaw::kNone) return a;
  }
  for (double& v : a.signature) v /= static_cast<double>(n_avg);
  return a;
}

CaptureFlaw GuardedRuntime::screen_signature(const Signature& signature,
                                             double* score) const {
  return screen_signature(std::span<const double>(signature), score);
}

CaptureFlaw GuardedRuntime::screen_signature(std::span<const double> signature,
                                             double* score) const {
  const auto screen = this->screen();
  STF_REQUIRE(screen != nullptr,
              "GuardedRuntime::screen_signature: not calibrated");
  return screen_signature(*screen, signature, score);
}

CaptureFlaw GuardedRuntime::screen_signature(const OutlierScreen& screen,
                                             std::span<const double> signature,
                                             double* score) const {
  // Finiteness, then the calibration envelope. score() maps non-finite bins
  // to +inf, so the order only affects the reported flaw label.
  const double s = screen.score(signature);
  if (score != nullptr) *score = s;
  if (!std::isfinite(s)) return CaptureFlaw::kNonFinite;
  if (s > policy_.outlier_threshold) return CaptureFlaw::kOutlier;
  return CaptureFlaw::kNone;
}

TestDisposition GuardedRuntime::test_device(
    const stf::rf::RfDut& dut, stf::stats::Rng& rng,
    const stf::rf::FaultInjector* faults, std::uint64_t sequence) const {
  // Pin this device's calibration version once at entry: a concurrent
  // hot-swap must never mix versions inside one device's screen + predict.
  return test_device(calibration(), dut, rng, faults, sequence);
}

TestDisposition GuardedRuntime::test_device(
    const CalibrationVersion& cal, const stf::rf::RfDut& dut,
    stf::stats::Rng& rng, const stf::rf::FaultInjector* faults,
    std::uint64_t sequence) const {
  STF_TRACE_SPAN("guard.test_device");
  TestDisposition d;
  const stf::rf::RfDut* const device = &dut;
  test_devices(cal, {&device, 1}, {&rng, 1}, faults, sequence, {&d, 1});
  return d;
}

void GuardedRuntime::test_devices(const CalibrationVersion& cal,
                                  std::span<const stf::rf::RfDut* const> duts,
                                  std::span<stf::stats::Rng> rngs,
                                  const stf::rf::FaultInjector* faults,
                                  std::uint64_t first_sequence,
                                  std::span<TestDisposition> out) const {
  STF_REQUIRE(cal.model != nullptr && cal.screen != nullptr,
              "GuardedRuntime::test_device: not calibrated");
  STF_REQUIRE(rngs.size() == duts.size() && out.size() == duts.size(),
              "GuardedRuntime::test_devices: one stream and one disposition "
              "per device");
  const std::size_t n = duts.size();
  STF_COUNT("guard.devices", n);
  // Seed the set's fresh streams together, four seeding recurrences at a
  // time, rather than one by one at each stream's first draw.
  stf::stats::Rng::seed_pending(rngs);
  const SignatureAcquirer& acq = runtime_.acquirer();
  const std::size_t m = acq.signature_length();
  const std::size_t n_cap = acq.capture_length();

  // Device i keeps to the per-device loop -- attempts, captures within an
  // attempt, and every draw from rngs[i] in that order -- but the devices
  // still in play take each capture together, so their board passes run in
  // lane groups. Nothing a device computes depends on another, so every
  // disposition is the one test_device() gives it alone.
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  const auto doubles = [&](std::size_t count) {
    return stf::core::ArenaVector<double>(
        count, 0.0, stf::core::ArenaAllocator<double>(&arena));
  };
  const auto indices = [&] {
    stf::core::ArenaVector<std::size_t> v{
        stf::core::ArenaAllocator<std::size_t>(&arena)};
    v.reserve(n);
    return v;
  };
  stf::core::ArenaVector<double> sums = doubles(n * m);
  stf::core::ArenaVector<double> captures = doubles(n * n_cap);
  stf::core::ArenaVector<double> scratch = doubles(m);
  stf::core::ArenaVector<CaptureFlaw> flaws(
      n, CaptureFlaw::kNone, stf::core::ArenaAllocator<CaptureFlaw>(&arena));
  stf::core::ArenaVector<const stf::rf::RfDut*> capture_duts(
      n, nullptr, stf::core::ArenaAllocator<const stf::rf::RfDut*>(&arena));
  stf::core::ArenaVector<stf::stats::Rng*> capture_rngs(
      n, nullptr, stf::core::ArenaAllocator<stf::stats::Rng*>(&arena));
  // live: devices with an attempt to make; capturing: those whose current
  // attempt has not yet hit a flawed capture.
  stf::core::ArenaVector<std::size_t> live = indices();
  stf::core::ArenaVector<std::size_t> capturing = indices();
  stf::core::ArenaVector<std::size_t> next = indices();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = TestDisposition{};
    live.push_back(i);
  }
  const auto sum_of = [&](std::size_t i) {
    return std::span<double>(sums.data() + i * m, m);
  };

  int n_avg = 1;
  for (int attempt = 1; attempt <= policy_.max_attempts && !live.empty();
       ++attempt) {
    if (attempt > 1) {
      STF_COUNT("guard.retries", live.size());
      n_avg *= policy_.escalation_averages;
      if (n_avg > 1) STF_COUNT("guard.escalations", live.size());
    }
    capturing.assign(live.begin(), live.end());
    for (const std::size_t i : live) {
      out[i].attempts = attempt;
      flaws[i] = CaptureFlaw::kNone;
      const std::span<double> sum = sum_of(i);
      std::fill(sum.begin(), sum.end(), 0.0);
    }

    // This attempt's captures, validated one by one as they arrive.
    for (int c = 0; c < n_avg && !capturing.empty(); ++c) {
      const std::size_t k = capturing.size();
      for (std::size_t j = 0; j < k; ++j) {
        capture_duts[j] = duts[capturing[j]];
        capture_rngs[j] = &rngs[capturing[j]];
      }
      acq.raw_capture_lanes({capture_duts.data(), k}, runtime_.stimulus(),
                            {capture_rngs.data(), k},
                            {captures.data(), k * n_cap});
      next.clear();
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t i = capturing[j];
        ++out[i].captures;
        flaws[i] = take_capture({captures.data() + j * n_cap, n_cap}, faults,
                                first_sequence + i, rngs[i],
                                {scratch.data(), m}, sum_of(i));
        if (flaws[i] == CaptureFlaw::kNone) next.push_back(i);
      }
      capturing.swap(next);
    }

    // Screen and predict every device whose captures all validated; the
    // rest retry with escalated averaging.
    next.clear();
    for (const std::size_t i : live) {
      TestDisposition& d = out[i];
      if (flaws[i] == CaptureFlaw::kNone) {
        const std::span<double> signature = sum_of(i);
        for (double& v : signature) v /= static_cast<double>(n_avg);
        flaws[i] = screen_signature(*cal.screen, signature, &d.outlier_score);
        if (flaws[i] == CaptureFlaw::kNone) {
          d.last_flaw = CaptureFlaw::kNone;
          d.kind = attempt == 1 ? DispositionKind::kPredicted
                                : DispositionKind::kPredictedAfterRetry;
          d.predicted =
              cal.model->predict(Signature(signature.begin(), signature.end()));
          continue;
        }
      }
      d.last_flaw = flaws[i];
      next.push_back(i);
    }
    live.swap(next);
  }

  // Every attempt failed validation: do not predict. The production flow
  // routes these parts to conventional per-spec test.
  for (const std::size_t i : live) {
    out[i].kind = DispositionKind::kRoutedToConventional;
    out[i].predicted.clear();
  }
  if (!live.empty()) STF_COUNT("guard.routed", live.size());
}

DriftStatus GuardedRuntime::monitor_golden(const stf::rf::RfDut& golden,
                                           stf::stats::Rng& rng,
                                           const stf::rf::FaultInjector* faults,
                                           std::uint64_t sequence,
                                           Signature* out_signature) {
  STF_TRACE_SPAN("guard.monitor_golden");
  STF_COUNT("guard.drift_checks");
  STF_REQUIRE(runtime_.calibrated(),
              "GuardedRuntime::monitor_golden: not calibrated");
  const SignatureAcquirer& acq = runtime_.acquirer();
  std::vector<double> capture =
      acq.raw_capture(golden, runtime_.stimulus(), &rng);
  if (faults != nullptr)
    faults->apply(capture, acq.config().digitizer.fs_hz, sequence, rng);
  Signature signature = acq.signature_from_capture(capture);

  DriftStatus status;
  {
    // Score and EWMA update in ONE critical section with the published
    // calibration: a concurrent swap either happens before this check
    // (scored by the new screen, folded into the reset monitor) or after
    // it (old screen, old monitor) -- never a torn mix.
    const stf::core::LockGuard lock(cal_mutex_);
    STF_REQUIRE(screen_ != nullptr,
                "GuardedRuntime::monitor_golden: not calibrated");
    status.score = screen_->score(signature);
    // A single wild golden capture should not trigger recalibration of the
    // whole line; the EWMA demands a *sustained* wander. Non-finite scores
    // saturate the EWMA to the alarm level instead of poisoning it with NaN.
    const double score_for_ewma =
        std::isfinite(status.score)
            ? status.score
            : policy_.drift_alarm_score / policy_.drift_ewma_alpha;
    if (!drift_seeded_) {
      drift_ewma_ = score_for_ewma;
      drift_seeded_ = true;
    } else {
      drift_ewma_ = (1.0 - policy_.drift_ewma_alpha) * drift_ewma_ +
                    policy_.drift_ewma_alpha * score_for_ewma;
    }
    ++drift_checks_;
    status.ewma = drift_ewma_;
    if (drift_ewma_ > policy_.drift_alarm_score && !drift_alarm_) {
      drift_alarm_ = true;
      STF_COUNT("guard.drift_alarms");
    }
    status.alarm = drift_alarm_;
  }
  if (out_signature != nullptr) *out_signature = std::move(signature);
  return status;
}

bool GuardedRuntime::recalibration_needed() const {
  const stf::core::LockGuard lock(cal_mutex_);
  return drift_alarm_;
}

std::uint64_t GuardedRuntime::drift_checks() const {
  const stf::core::LockGuard lock(cal_mutex_);
  return drift_checks_;
}

void GuardedRuntime::reset_drift_monitor() {
  const stf::core::LockGuard lock(cal_mutex_);
  reset_drift_monitor_locked();
}

void GuardedRuntime::reset_drift_monitor_locked() {
  drift_ewma_ = 0.0;
  drift_seeded_ = false;
  drift_alarm_ = false;
  drift_checks_ = 0;
}

}  // namespace stf::sigtest
