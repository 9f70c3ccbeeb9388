#include "sigtest/cell.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "stats/metrics.hpp"

namespace stf::sigtest {

namespace {

// Devices a pool thread tests together: four lane groups at the widest
// backend, and a bound on the capture arena a chunk takes whatever the
// batch size.
constexpr std::size_t kLaneBlock = 16;

std::vector<const stf::rf::RfDut*> duts_of(
    const std::vector<stf::rf::DeviceRecord>& lot) {
  std::vector<const stf::rf::RfDut*> duts;
  duts.reserve(lot.size());
  for (const stf::rf::DeviceRecord& rec : lot) duts.push_back(rec.dut.get());
  return duts;
}

// Time-domain validation under `policy`: finiteness + railing.
CaptureFlaw capture_flaw(const GuardPolicy& policy,
                         std::span<const double> capture) {
  STF_REQUIRE(!capture.empty(), "TestCell: empty capture");
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
      policy.rail_fraction_limit * static_cast<double>(capture.size()))
    return CaptureFlaw::kRailed;
  return CaptureFlaw::kNone;
}

// Signature-space validation under `policy` against a pinned screen.
CaptureFlaw signature_flaw(const GuardPolicy& policy,
                           const OutlierScreen& screen,
                           std::span<const double> signature, double* score) {
  // Finiteness, then the calibration envelope. score() maps non-finite bins
  // to +inf, so the order only affects the reported flaw label.
  const double s = screen.score(signature);
  if (score != nullptr) *score = s;
  if (!std::isfinite(s)) return CaptureFlaw::kNonFinite;
  if (s > policy.outlier_threshold) return CaptureFlaw::kOutlier;
  return CaptureFlaw::kNone;
}

}  // namespace

TestCell::TestCell(const SignatureTestConfig& config,
                   stf::dsp::PwlWaveform stimulus,
                   std::vector<std::string> spec_names, GuardPolicy policy,
                   BatchOptions batch, CalibrationOptions cal_options,
                   std::size_t max_signature_bins)
    : acquirer_(config, max_signature_bins),
      stimulus_(std::move(stimulus)),
      spec_names_(std::move(spec_names)),
      policy_(policy),
      batch_(batch),
      cal_options_(cal_options) {
  STF_REQUIRE(!spec_names_.empty(), "TestCell: no spec names");
  STF_REQUIRE(batch_.batch_size >= 1, "TestCell: batch_size < 1");
  STF_REQUIRE(policy_.max_attempts >= 1, "TestCell: max_attempts < 1");
  STF_REQUIRE(policy_.escalation_averages >= 1,
              "TestCell: escalation_averages < 1");
  // The last attempt averages escalation_averages^(max_attempts - 1)
  // captures, an int count: it must not overflow.
  std::int64_t last_attempt_captures = 1;
  for (int a = 1; a < policy_.max_attempts && policy_.escalation_averages > 1;
       ++a) {
    last_attempt_captures *= policy_.escalation_averages;
    STF_REQUIRE(last_attempt_captures <= std::numeric_limits<int>::max(),
                "TestCell: escalation_averages^(max_attempts - 1) overflows "
                "int");
  }
  STF_REQUIRE(policy_.outlier_threshold > 0.0,
              "TestCell: outlier_threshold <= 0");
  STF_REQUIRE(policy_.rail_fraction_limit > 0.0,
              "TestCell: rail_fraction_limit <= 0");
  STF_REQUIRE(policy_.drift_ewma_alpha > 0.0 && policy_.drift_ewma_alpha <= 1.0,
              "TestCell: drift_ewma_alpha outside (0, 1]");
}

// stf-analyze: allow(api-contract) -- copying an already-validated object
TestCell::TestCell(const TestCell& other)
    : acquirer_(other.acquirer_),
      stimulus_(other.stimulus_),
      spec_names_(other.spec_names_),
      policy_(other.policy_),
      batch_(other.batch_),
      cal_options_(other.cal_options_) {
  const stf::core::LockGuard lock(other.mutex_);
  cal_ = other.cal_;
  drift_ = other.drift_;
}

void TestCell::calibrate(const std::vector<stf::rf::DeviceRecord>& training,
                         stf::stats::Rng& rng, int n_avg) {
  STF_TRACE_SPAN("runtime.calibrate");
  STF_REQUIRE(training.size() >= 2, "TestCell::calibrate: need >= 2 devices");
  STF_REQUIRE(n_avg >= 1, "TestCell::calibrate: n_avg < 1");
  const std::size_t m = acquirer_.signature_length();
  const std::size_t n_specs = spec_names_.size();

  // Fit into a fresh model and screen, then publish them as one version: a
  // reader holding the previous snapshot never observes a half-fitted pair.
  CalibrationModel fitted(cal_options_);
  CaptureFitData data;
  fit_from_captures(
      fitted, training.size(),
      [&](std::size_t i) {
        const Signature s =
            acquirer_.acquire(*training[i].dut, stimulus_, &rng);
        STF_REQUIRE(s.size() == m, "TestCell: signature length mismatch");
        return s;
      },
      [&](std::size_t i) {
        const std::vector<double> p = training[i].specs.to_vector();
        STF_REQUIRE(p.size() == n_specs, "TestCell: spec vector mismatch");
        return p;
      },
      n_avg, &data);
  // The screen sees the same averaged signatures the regression trained on,
  // with the per-bin variance inflated by the single-capture noise floor so
  // production (single-capture) scores are not biased outward.
  auto screen = std::make_shared<OutlierScreen>();
  screen->fit(data.signatures, data.noise_var);
  publish(std::make_shared<const CalibrationModel>(std::move(fitted)),
          std::move(screen));
}

std::uint64_t TestCell::swap_calibration(
    std::shared_ptr<const CalibrationModel> model,
    std::shared_ptr<const OutlierScreen> screen) {
  STF_TRACE_SPAN("guard.swap_calibration");
  const std::size_t m = acquirer_.signature_length();
  STF_REQUIRE(screen != nullptr, "TestCell::swap_calibration: null screen");
  STF_REQUIRE(screen->fitted(), "TestCell::swap_calibration: unfitted screen");
  STF_REQUIRE(screen->signature_length() == m,
              "TestCell::swap_calibration: screen length mismatch");
  STF_REQUIRE(model != nullptr, "TestCell::swap_calibration: null model");
  STF_REQUIRE(model->fitted(), "TestCell::swap_calibration: unfitted model");
  STF_REQUIRE(model->signature_length() == m,
              "TestCell::swap_calibration: model length mismatch");
  STF_REQUIRE(model->n_specs() == spec_names_.size(),
              "TestCell::swap_calibration: spec count mismatch");
  const std::uint64_t version = publish(std::move(model), std::move(screen));
  STF_COUNT("guard.calibration_swaps");
  return version;
}

std::uint64_t TestCell::publish(std::shared_ptr<const CalibrationModel> model,
                                std::shared_ptr<const OutlierScreen> screen) {
  const stf::core::LockGuard lock(mutex_);
  cal_ = CalibrationVersion{std::move(model), std::move(screen),
                            cal_.version + 1};
  drift_ = DriftState{};
  return cal_.version;
}

CalibrationVersion TestCell::calibration() const {
  const stf::core::LockGuard lock(mutex_);
  return cal_;
}

std::shared_ptr<const CalibrationModel> TestCell::model() const {
  const stf::core::LockGuard lock(mutex_);
  return cal_.model;
}

std::shared_ptr<const OutlierScreen> TestCell::screen() const {
  const stf::core::LockGuard lock(mutex_);
  return cal_.screen;
}

TestDisposition TestCell::test_device(const stf::rf::RfDut& dut,
                                      stf::stats::Rng& rng,
                                      const stf::rf::FaultInjector* faults,
                                      std::uint64_t sequence) const {
  STF_TRACE_SPAN("guard.test_device");
  // Pin this device's calibration version once at entry: a concurrent
  // hot-swap must never mix versions inside one device's screen + predict.
  TestDisposition d;
  const stf::rf::RfDut* const device = &dut;
  test_devices(policy_, calibration(), {&device, 1}, {&rng, 1}, faults,
               sequence, {&d, 1});
  return d;
}

LotResult TestCell::test_lot(const std::vector<const stf::rf::RfDut*>& lot,
                             const stf::stats::Rng& rng,
                             const stf::rf::FaultInjector* faults,
                             std::uint64_t first_sequence,
                             std::optional<BatchOptions> batch) const {
  STF_TRACE_SPAN("batch.test_lot");
  const std::size_t batch_size = batch.value_or(batch_).batch_size;
  STF_REQUIRE(batch_size >= 1, "TestCell::test_lot: batch_size < 1");
  // Pin the calibration version ONCE for the whole lot: every device in it
  // screens and predicts on this snapshot, so a concurrent hot-swap never
  // mixes model versions inside a lot and the result stays bit-identical
  // to the serial reference run on the same version.
  const CalibrationVersion cal = calibration();
  STF_REQUIRE(cal.model != nullptr && cal.screen != nullptr,
              "TestCell::test_lot: not calibrated");
  LotResult result;
  result.model_version = cal.version;
  result.dispositions.resize(lot.size());
  if (lot.empty()) return result;
  for (const stf::rf::RfDut* dut : lot)
    STF_REQUIRE(dut != nullptr, "TestCell::test_lot: null device");
  STF_COUNT("batch.lots");
  STF_COUNT("batch.devices", lot.size());

  // A pool thread claims batch_size devices and tests them attempt by
  // attempt, at most kLaneBlock at a time so the arena scratch stays
  // bounded. Device i runs on its own derived stream and fault sequence
  // and writes only its own slot, so how the pool splits the lot never
  // changes a disposition (see header). Neither the chunk count nor a
  // chunk's end adds batch_size to anything: near SIZE_MAX that wraps.
  const std::size_t chunks =
      lot.size() / batch_size + (lot.size() % batch_size != 0 ? 1 : 0);
  stf::core::parallel_for(
      0, chunks,
      [&](std::size_t chunk) {
        const std::size_t begin = chunk * batch_size;
        const std::size_t end = begin + std::min(batch_size, lot.size() - begin);
        for (std::size_t lo = begin; lo < end; lo += kLaneBlock) {
          const std::size_t n = std::min(kLaneBlock, end - lo);
          stf::core::Arena& arena = stf::core::capture_arena();
          const stf::core::ArenaScope scope(arena);
          stf::core::ArenaVector<stf::stats::Rng> children{
              stf::core::ArenaAllocator<stf::stats::Rng>(&arena)};
          children.reserve(n);
          for (std::size_t i = lo; i < lo + n; ++i)
            children.push_back(rng.derive(first_sequence + i));
          test_devices(policy_, cal, {lot.data() + lo, n},
                       {children.data(), n}, faults, first_sequence + lo,
                       {result.dispositions.data() + lo, n});
        }
      },
      1);

  for (const TestDisposition& d : result.dispositions) {
    switch (d.kind) {
      case DispositionKind::kPredicted: ++result.predicted; break;
      case DispositionKind::kPredictedAfterRetry: ++result.retried; break;
      case DispositionKind::kRoutedToConventional: ++result.routed; break;
    }
  }
  return result;
}

LotResult TestCell::test_lot(const std::vector<stf::rf::DeviceRecord>& lot,
                             const stf::stats::Rng& rng,
                             const stf::rf::FaultInjector* faults,
                             std::uint64_t first_sequence) const {
  return test_lot(duts_of(lot), rng, faults, first_sequence);
}

ValidationReport TestCell::validate(
    const std::vector<stf::rf::DeviceRecord>& devices,
    stf::stats::Rng& rng) const {
  STF_TRACE_SPAN("runtime.validate");
  STF_REQUIRE(!devices.empty(), "TestCell::validate: no devices");
  // One version for the whole report, and every device through the engine
  // under the unguarded preset, in order on the caller's one stream: the
  // paper's Figs. 8-13 read exactly this stream shape.
  const CalibrationVersion cal = calibration();
  const GuardPolicy unguarded = GuardPolicy::unguarded();
  std::vector<std::vector<double>> truth, predicted;
  for (const stf::rf::DeviceRecord& device : devices) {
    TestDisposition d;
    const stf::rf::RfDut* const dut = device.dut.get();
    test_devices(unguarded, cal, {&dut, 1}, {&rng, 1}, nullptr, 0, {&d, 1});
    STF_ENSURE(d.has_prediction(),
               "TestCell::validate: non-finite capture or signature (NaN/Inf "
               "leaked through the stimulus/envelope/FFT chain)");
    truth.push_back(device.specs.to_vector());
    predicted.push_back(std::move(d.predicted));
  }
  return make_validation_report(spec_names_, truth, predicted);
}

std::vector<TestDisposition> serial_reference(
    const TestCell& cell, const std::vector<const stf::rf::RfDut*>& lot,
    const stf::stats::Rng& rng, const stf::rf::FaultInjector* faults,
    std::uint64_t first_sequence) {
  std::vector<TestDisposition> out(lot.size());
  for (std::size_t i = 0; i < lot.size(); ++i) {
    STF_REQUIRE(lot[i] != nullptr, "serial_reference: null device");
    stf::stats::Rng child = rng.derive(first_sequence + i);
    out[i] = cell.test_device(*lot[i], child, faults, first_sequence + i);
  }
  return out;
}

std::vector<TestDisposition> serial_reference(
    const TestCell& cell, const std::vector<stf::rf::DeviceRecord>& lot,
    const stf::stats::Rng& rng, const stf::rf::FaultInjector* faults,
    std::uint64_t first_sequence) {
  return serial_reference(cell, duts_of(lot), rng, faults, first_sequence);
}

CaptureFlaw TestCell::inspect_capture(std::span<const double> capture) const {
  return capture_flaw(policy_, capture);
}

CaptureFlaw TestCell::take_capture(const GuardPolicy& policy,
                                   std::span<double> capture,
                                   const stf::rf::FaultInjector* faults,
                                   std::uint64_t sequence,
                                   stf::stats::Rng& rng,
                                   std::span<double> scratch,
                                   std::span<double> sum) const {
  STF_REQUIRE(scratch.size() == sum.size(),
              "TestCell: signature length mismatch");
  if (faults != nullptr)
    faults->apply(capture, acquirer_.config().digitizer.fs_hz, sequence, rng);
  const CaptureFlaw flaw = capture_flaw(policy, capture);
  if (flaw != CaptureFlaw::kNone) return flaw;
  acquirer_.signature_into(capture, scratch);
  for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += scratch[j];
  return CaptureFlaw::kNone;
}

CaptureAttempt TestCell::capture_attempt(const stf::rf::RfDut& dut,
                                         stf::stats::Rng& rng,
                                         const stf::rf::FaultInjector* faults,
                                         std::uint64_t sequence,
                                         int n_avg) const {
  STF_REQUIRE(n_avg >= 1, "TestCell::capture_attempt: n_avg < 1");
  const std::size_t m = acquirer_.signature_length();

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
      acquirer_.capture_length(), 0.0,
      stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> sig(
      m, 0.0, stf::core::ArenaAllocator<double>(&arena));
  const std::span<double> cap_span(capture.data(), capture.size());
  for (int c = 0; c < n_avg; ++c) {
    acquirer_.raw_capture_into(dut, stimulus_, &rng, cap_span);
    ++a.captures;
    a.flaw = take_capture(policy_, cap_span, faults, sequence, rng,
                          {sig.data(), sig.size()}, a.signature);
    if (a.flaw != CaptureFlaw::kNone) return a;
  }
  for (double& v : a.signature) v /= static_cast<double>(n_avg);
  return a;
}

CaptureFlaw TestCell::screen_signature(std::span<const double> signature,
                                       double* score) const {
  const auto screen = this->screen();
  STF_REQUIRE(screen != nullptr, "TestCell::screen_signature: not calibrated");
  return signature_flaw(policy_, *screen, signature, score);
}

void TestCell::test_devices(const GuardPolicy& policy,
                            const CalibrationVersion& cal,
                            std::span<const stf::rf::RfDut* const> duts,
                            std::span<stf::stats::Rng> rngs,
                            const stf::rf::FaultInjector* faults,
                            std::uint64_t first_sequence,
                            std::span<TestDisposition> out) const {
  STF_REQUIRE(cal.model != nullptr && cal.screen != nullptr,
              "TestCell::test_device: not calibrated");
  STF_REQUIRE(rngs.size() == duts.size() && out.size() == duts.size(),
              "TestCell::test_devices: one stream and one disposition per "
              "device");
  const std::size_t n = duts.size();
  STF_COUNT("guard.devices", n);
  // Seed the set's fresh streams together, four seeding recurrences at a
  // time, rather than one by one at each stream's first draw.
  stf::stats::Rng::seed_pending(rngs);
  const std::size_t m = acquirer_.signature_length();
  const std::size_t n_cap = acquirer_.capture_length();

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
  for (int attempt = 1; attempt <= policy.max_attempts && !live.empty();
       ++attempt) {
    if (attempt > 1) {
      STF_COUNT("guard.retries", live.size());
      n_avg *= policy.escalation_averages;
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
      acquirer_.raw_capture_lanes({capture_duts.data(), k}, stimulus_,
                                  {capture_rngs.data(), k},
                                  {captures.data(), k * n_cap});
      next.clear();
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t i = capturing[j];
        ++out[i].captures;
        flaws[i] = take_capture(policy, {captures.data() + j * n_cap, n_cap},
                                faults, first_sequence + i, rngs[i],
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
        flaws[i] =
            signature_flaw(policy, *cal.screen, signature, &d.outlier_score);
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

DriftStatus TestCell::monitor_golden(const stf::rf::RfDut& golden,
                                     stf::stats::Rng& rng,
                                     const stf::rf::FaultInjector* faults,
                                     std::uint64_t sequence,
                                     Signature* out_signature) {
  STF_TRACE_SPAN("guard.monitor_golden");
  STF_COUNT("guard.drift_checks");
  STF_REQUIRE(calibrated(), "TestCell::monitor_golden: not calibrated");
  std::vector<double> capture =
      acquirer_.raw_capture(golden, stimulus_, &rng);
  if (faults != nullptr)
    faults->apply(capture, acquirer_.config().digitizer.fs_hz, sequence, rng);
  Signature signature = acquirer_.signature_from_capture(capture);

  DriftStatus status;
  {
    // Score and EWMA update in ONE critical section with the published
    // calibration: a concurrent swap either happens before this check
    // (scored by the new screen, folded into the reset monitor) or after
    // it (old screen, old monitor) -- never a torn mix.
    const stf::core::LockGuard lock(mutex_);
    status.score = cal_.screen->score(signature);
    // A single wild golden capture should not trigger recalibration of the
    // whole line; the EWMA demands a *sustained* wander. Non-finite scores
    // saturate the EWMA to the alarm level instead of poisoning it with NaN.
    const double score_for_ewma =
        std::isfinite(status.score)
            ? status.score
            : policy_.drift_alarm_score / policy_.drift_ewma_alpha;
    if (!drift_.seeded) {
      drift_.ewma = score_for_ewma;
      drift_.seeded = true;
    } else {
      drift_.ewma = (1.0 - policy_.drift_ewma_alpha) * drift_.ewma +
                    policy_.drift_ewma_alpha * score_for_ewma;
    }
    ++drift_.checks;
    status.ewma = drift_.ewma;
    if (drift_.ewma > policy_.drift_alarm_score && !drift_.alarm) {
      drift_.alarm = true;
      STF_COUNT("guard.drift_alarms");
    }
    status.alarm = drift_.alarm;
  }
  if (out_signature != nullptr) *out_signature = std::move(signature);
  return status;
}

bool TestCell::recalibration_needed() const {
  const stf::core::LockGuard lock(mutex_);
  return drift_.alarm;
}

std::uint64_t TestCell::drift_checks() const {
  const stf::core::LockGuard lock(mutex_);
  return drift_.checks;
}

void TestCell::reset_drift_monitor() {
  const stf::core::LockGuard lock(mutex_);
  drift_ = DriftState{};
}

}  // namespace stf::sigtest
