// Robustness sweeps: the headline result must not depend on the particular
// random population or noise realization baked into the benches, and the
// guarded runtime must hold its contract under every tester fault class
// (clean-path bit-identity, deterministic replay at any thread count,
// strictly fewer escapes than the unguarded runtime, drift-alarm latching).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

// One shared optimized stimulus (the expensive part).
class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    const auto cfg = sigtest::SignatureTestConfig::simulation_study();
    sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                     circuit::Lna900::nominal(), 0.05);
    sigtest::SignatureAcquirer acq(cfg, 16);
    sigtest::StimulusOptimizerConfig oc;
    oc.encoding.n_breakpoints = 16;
    oc.encoding.duration_s = cfg.capture_s;
    oc.encoding.v_min = -0.45;
    oc.encoding.v_max = 0.45;
    oc.ga.population = 20;
    oc.ga.generations = 10;
    oc.ga.seed = 3;
    stimulus_ = new dsp::PwlWaveform(
        sigtest::optimize_stimulus(perturb, acq, oc).waveform);
  }
  static void TearDownTestSuite() { delete stimulus_; }
  static dsp::PwlWaveform* stimulus_;
};

dsp::PwlWaveform* SeedRobustness::stimulus_ = nullptr;

TEST_P(SeedRobustness, SimStudyQualityHoldsAcrossPopulations) {
  const std::uint64_t seed = GetParam();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto devices = rf::make_lna_population(90, 0.2, seed);
  const auto split = rf::split_population(devices, 70);
  sigtest::TestCell runtime(cfg, *stimulus_, circuit::LnaSpecs::names());
  stats::Rng rng(seed + 1);
  runtime.calibrate(split.calibration, rng);
  const auto report = runtime.validate(split.validation, rng);
  // Core claims, at every seed: gain & IIP3 strongly predicted, NF worst.
  EXPECT_GT(report.specs[0].r_squared, 0.9) << "gain, seed " << seed;
  EXPECT_GT(report.specs[2].r_squared, 0.9) << "iip3, seed " << seed;
  EXPECT_LT(report.specs[0].std_error, 0.2) << "gain, seed " << seed;
  EXPECT_LT(report.specs[1].r_squared, report.specs[2].r_squared)
      << "NF must stay the hardest spec, seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values<std::uint64_t>(101, 202, 303));

// ---------------------------------------------------------------------------
// The test cell under tester faults. The fixture shares one optimized
// stimulus + calibrated cell across all fault tests (calibration is the
// expensive part), plus a cell under GuardPolicy::unguarded() that carries
// the same calibration; every test below must leave both unchanged
// (test_device is const; monitor tests copy the cell first).
class GuardedFaults : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cfg = sigtest::SignatureTestConfig::simulation_study();
    sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                     circuit::Lna900::nominal(), 0.05);
    sigtest::SignatureAcquirer acq(cfg, 16);
    sigtest::StimulusOptimizerConfig oc;
    oc.encoding.n_breakpoints = 16;
    oc.encoding.duration_s = cfg.capture_s;
    oc.encoding.v_min = -0.45;
    oc.encoding.v_max = 0.45;
    oc.ga.population = 20;
    oc.ga.generations = 10;
    oc.ga.seed = 3;
    const auto stimulus = sigtest::optimize_stimulus(perturb, acq, oc).waveform;

    sigtest::GuardPolicy policy;
    policy.outlier_threshold = 2.5;
    cell_ = new sigtest::TestCell(cfg, stimulus, circuit::LnaSpecs::names(),
                                  policy);
    lot_ = new std::vector<rf::DeviceRecord>(rf::make_lna_population(30, 0.2,
                                                                     77));
    const auto cal = rf::make_lna_population(60, 0.2, 42);
    stats::Rng rng(7);
    cell_->calibrate(cal, rng);
    unguarded_ = new sigtest::TestCell(cfg, stimulus,
                                       circuit::LnaSpecs::names(),
                                       sigtest::GuardPolicy::unguarded());
    unguarded_->swap_calibration(cell_->model(), cell_->screen());
  }
  static void TearDownTestSuite() {
    delete cell_;
    delete unguarded_;
    delete lot_;
  }

  // All fault classes at bench-like magnitudes, alone and composed.
  static std::vector<rf::FaultInjector> fault_scenarios() {
    using rf::FaultSpec;
    return {
        rf::FaultInjector{{FaultSpec::lo_drift(100e3, 1.2)}},
        rf::FaultInjector{{FaultSpec::clip(0.10)}},
        rf::FaultInjector{{FaultSpec::stuck_sample(0.10)}},
        rf::FaultInjector{{FaultSpec::dropped_sample(0.03)}},
        rf::FaultInjector{{FaultSpec::contact_noise(0.02, 0.05)}},
        rf::FaultInjector{{FaultSpec::baseline_wander(0.05, 300e3)}},
        rf::FaultInjector{{FaultSpec::gain_drift(2e-2)}},
        rf::FaultInjector{{FaultSpec::clip(0.12),
                           FaultSpec::contact_noise(0.01, 0.05),
                           FaultSpec::gain_drift(1e-2)}},
    };
  }

  static std::vector<sigtest::TestDisposition> run_lot(
      const rf::FaultInjector* faults, std::uint64_t seed) {
    std::vector<sigtest::TestDisposition> out;
    stats::Rng rng(seed);
    for (std::size_t i = 0; i < lot_->size(); ++i)
      out.push_back(cell_->test_device(*(*lot_)[i].dut, rng, faults, i));
    return out;
  }

  static sigtest::TestCell* cell_;
  static sigtest::TestCell* unguarded_;
  static std::vector<rf::DeviceRecord>* lot_;
};

sigtest::TestCell* GuardedFaults::cell_ = nullptr;
sigtest::TestCell* GuardedFaults::unguarded_ = nullptr;
std::vector<rf::DeviceRecord>* GuardedFaults::lot_ = nullptr;

// With no faults, the guard must be invisible: every device predicted on
// the first attempt with the exact bits of the unguarded preset on the
// same calibration.
TEST_F(GuardedFaults, CleanPathIsBitIdenticalToUnguardedRuntime) {
  stats::Rng rng_off(123);
  const auto on = run_lot(nullptr, 123);
  for (std::size_t i = 0; i < lot_->size(); ++i) {
    const auto off = unguarded_->test_device(*(*lot_)[i].dut, rng_off);
    ASSERT_EQ(on[i].kind, sigtest::DispositionKind::kPredicted)
        << "device " << i;
    ASSERT_EQ(off.kind, sigtest::DispositionKind::kPredicted)
        << "device " << i;
    EXPECT_EQ(on[i].attempts, 1) << "device " << i;
    EXPECT_EQ(on[i].predicted, off.predicted) << "device " << i;  // bitwise
  }
}

// The one thing the unguarded preset still refuses: a capture with a
// non-finite sample has no prediction to make, so it is routed. A board
// gain of 1 + 1e308 * sequence overflows the capture from sequence 1 on and
// is itself infinite from sequence 2 on.
TEST_F(GuardedFaults, UnguardedPresetRoutesANonFiniteCapture) {
  const rf::FaultInjector overflow = rf::FaultInjector::parse("gain:1e308");
  const rf::RfDut& dut = *(*lot_)[0].dut;
  stats::Rng rng(5);
  const auto finite = unguarded_->test_device(dut, rng, &overflow, 0);
  EXPECT_EQ(finite.kind, sigtest::DispositionKind::kPredicted);
  const auto routed = unguarded_->test_device(dut, rng, &overflow, 2);
  EXPECT_EQ(routed.kind, sigtest::DispositionKind::kRoutedToConventional);
  EXPECT_EQ(routed.last_flaw, sigtest::CaptureFlaw::kNonFinite);
  EXPECT_TRUE(routed.predicted.empty());
  EXPECT_EQ(routed.attempts, 1);
  EXPECT_EQ(routed.captures, 1);
}

// Every fault scenario must replay bit-identically from its seed, alone
// and composed -- the determinism contract of rf/faults.hpp.
TEST_F(GuardedFaults, FaultScenariosReplayBitIdentically) {
  int s = 0;
  for (const auto& faults : fault_scenarios()) {
    const auto a = run_lot(&faults, 900 + s);
    const auto b = run_lot(&faults, 900 + s);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind) << "scenario " << s << " device " << i;
      EXPECT_EQ(a[i].attempts, b[i].attempts)
          << "scenario " << s << " device " << i;
      EXPECT_EQ(a[i].captures, b[i].captures)
          << "scenario " << s << " device " << i;
      EXPECT_EQ(a[i].predicted, b[i].predicted)  // bitwise
          << "scenario " << s << " device " << i;
      EXPECT_EQ(a[i].outlier_score, b[i].outlier_score)
          << "scenario " << s << " device " << i;
    }
    ++s;
  }
}

// Retry counts and dispositions must not depend on STF_THREADS: the guard
// draws all randomness from the caller's Rng, never from thread identity.
TEST_F(GuardedFaults, DispositionsIdenticalAcrossThreadCounts) {
  const auto faults = fault_scenarios()[7];  // composed scenario
  const auto run_at = [&](std::size_t threads) {
    ThreadCountGuard tg(threads);
    return run_lot(&faults, 4242);
  };
  const auto a = run_at(1);
  const auto b = run_at(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "device " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "device " << i;
    EXPECT_EQ(a[i].predicted, b[i].predicted) << "device " << i;
  }
}

// Each fault class alone must trip the guard on a meaningful fraction of
// the lot (the per-class escape-rate table lives in bench/tab_guarded_flow;
// here we assert the validation machinery reacts at all).
TEST_F(GuardedFaults, EveryFaultClassTripsTheGuard) {
  const auto scenarios = fault_scenarios();
  // gain_drift is sequence-driven and below the screen threshold early in
  // the lot by design (the drift monitor owns that class); skip index 6.
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (s == 6) continue;
    const auto on = run_lot(&scenarios[s], 31 + s);
    int reacted = 0;
    for (const auto& d : on)
      if (d.attempts > 1 ||
          d.kind == sigtest::DispositionKind::kRoutedToConventional)
        ++reacted;
    EXPECT_GT(reacted, 0) << "scenario " << s;
  }
}

// Guard-on escapes must not exceed guard-off escapes for any fault class
// (strict improvement is demonstrated on the 200-part lot in
// bench/tab_guarded_flow; on this 30-part lot we assert no regression).
TEST_F(GuardedFaults, GuardNeverAddsEscapes) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Limit {
    double lo, hi;
  };
  // gain window + generous nf/iip3, 0.25 dB guard band on predictions.
  const Limit limits[3] = {{14.2, 15.6}, {-kInf, 3.2}, {-14.3, kInf}};
  const double band = 0.25;
  const auto passes = [&](const std::vector<double>& specs, double guard) {
    for (int k = 0; k < 3; ++k)
      if (specs[k] < limits[k].lo + guard || specs[k] > limits[k].hi - guard)
        return false;
    return true;
  };
  const auto scenarios = fault_scenarios();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    stats::Rng rng_off(77 + s);
    const auto on = run_lot(&scenarios[s], 77 + s);
    int esc_off = 0, esc_on = 0;
    for (std::size_t i = 0; i < lot_->size(); ++i) {
      // Every device takes its unguarded draws, to keep the stream aligned.
      const auto off =
          unguarded_->test_device(*(*lot_)[i].dut, rng_off, &scenarios[s], i);
      if (passes((*lot_)[i].specs.to_vector(), 0.0)) continue;
      if (off.has_prediction() && passes(off.predicted, band)) ++esc_off;
      if (on[i].has_prediction() && passes(on[i].predicted, band)) ++esc_on;
    }
    EXPECT_LE(esc_on, esc_off) << "scenario " << s;
  }
}

// A non-finite signature bin must be treated as an outlier, never as
// in-population (regression: NaN propagated through score() used to make
// is_outlier return false and the corrupted capture was predicted).
TEST_F(GuardedFaults, NonFiniteSignatureBinIsAnOutlier) {
  const auto& screen = *cell_->screen();
  stats::Rng rng(3);
  auto sig =
      cell_->acquirer().acquire(*(*lot_)[0].dut, cell_->stimulus(), &rng);
  ASSERT_TRUE(std::isfinite(screen.score(sig)));
  EXPECT_FALSE(screen.is_outlier(sig, 1e6));
  sig[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isinf(screen.score(sig)));
  EXPECT_TRUE(screen.is_outlier(sig, 1e6));
  sig[2] = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(screen.is_outlier(sig, 1e6));
}

// Drift monitor: a slow gain drift must latch the recalibration flag within
// a bounded number of golden checks, a clean chain must never alarm, and
// reset_drift_monitor must clear the latch.
TEST_F(GuardedFaults, DriftMonitorLatchesAndResets) {
  auto monitor = *cell_;  // copy: the fixture cell stays pristine
  const auto golden = rf::extract_lna_dut(circuit::Lna900::nominal());
  stats::Rng rng(13);

  // Clean chain: no alarm over many checks.
  for (int c = 0; c < 80; ++c) {
    const auto st = monitor.monitor_golden(*golden.dut, rng);
    EXPECT_FALSE(st.alarm) << "clean check " << c;
  }
  EXPECT_FALSE(monitor.recalibration_needed());

  // Drifting chain: alarm within 120 checks, then stays latched.
  monitor.reset_drift_monitor();
  const rf::FaultInjector drift{{rf::FaultSpec::gain_drift(4e-3)}};
  int alarm_at = -1;
  for (int c = 0; c < 120 && alarm_at < 0; ++c)
    if (monitor
            .monitor_golden(*golden.dut, rng, &drift,
                            static_cast<std::uint64_t>(c))
            .alarm)
      alarm_at = c;
  ASSERT_GE(alarm_at, 0) << "drift never alarmed";
  EXPECT_TRUE(monitor.recalibration_needed());
  // Latched even on a now-clean capture.
  EXPECT_TRUE(monitor.monitor_golden(*golden.dut, rng).alarm);

  monitor.reset_drift_monitor();
  EXPECT_FALSE(monitor.recalibration_needed());
}

// FaultInjector::parse round-trips every fault name and rejects garbage.
TEST(GuardPolicyLimits, RejectsEscalationThatOverflowsTheCaptureCount) {
  // Attempt k averages escalation_averages^(k-1) captures in an int. With
  // the default x4, attempt 17 would need 4^16 = 2^32: signed overflow, and
  // a device whose every capture rails reaches it after only 17 captures.
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto stimulus =
      dsp::PwlWaveform::uniform(cfg.capture_s, {0.0, 0.2, -0.2, 0.1});
  const auto make = [&](int max_attempts, int escalation) {
    sigtest::GuardPolicy p;
    p.max_attempts = max_attempts;
    p.escalation_averages = escalation;
    return sigtest::TestCell(cfg, stimulus, circuit::LnaSpecs::names(), p);
  };
  EXPECT_CONTRACT_THROW(make(17, 4), std::invalid_argument);
  EXPECT_CONTRACT_THROW(make(32, 2), std::invalid_argument);
  EXPECT_CONTRACT_THROW(make(1000, 3), std::invalid_argument);
  // The largest counts that fit are accepted: 4^15 = 2^30 and 2^30.
  EXPECT_NO_THROW(make(16, 4));
  EXPECT_NO_THROW(make(31, 2));
  // No escalation never overflows, however many attempts.
  EXPECT_NO_THROW(make(100000, 1));
}

TEST(FaultParse, RoundTripAndErrors) {
  const auto inj = rf::FaultInjector::parse(
      "lo:2e3:0.8,clip:0.1,stuck:0.05,drop:0.02,contact:0.02:0.5,"
      "wander:0.05:200e3,gain:2e-3");
  ASSERT_EQ(inj.faults().size(), 7u);
  EXPECT_EQ(inj.faults()[0].kind, rf::FaultKind::kLoDrift);
  EXPECT_DOUBLE_EQ(inj.faults()[0].p1, 2e3);
  EXPECT_DOUBLE_EQ(inj.faults()[0].p2, 0.8);
  EXPECT_EQ(inj.faults()[1].kind, rf::FaultKind::kClip);
  EXPECT_EQ(inj.faults()[6].kind, rf::FaultKind::kGainDrift);
  EXPECT_FALSE(inj.describe().empty());

  EXPECT_THROW(rf::FaultInjector::parse("unknown:1"), std::invalid_argument);
  EXPECT_THROW(rf::FaultInjector::parse("clip"), std::invalid_argument);
  EXPECT_THROW(rf::FaultInjector::parse("clip:abc"), std::invalid_argument);

  // Parameters outside the domain of the std distributions apply() feeds
  // them to, and non-finite ones, are rejected on every entry path.
  for (const char* spec :
       {"stuck:nan", "stuck:-0.1", "drop:-0.5", "drop:1.5", "contact:1.5:0.05",
        "contact:0.02:nan", "lo:-100", "lo:100:-0.5", "lo:1e308", "lo:inf",
        "clip:inf", "wander:0.05:inf", "gain:nan"})
    EXPECT_THROW(rf::FaultInjector::parse(spec), std::invalid_argument)
        << spec;
  rf::FaultInjector inj2;
  EXPECT_THROW(inj2.add(rf::FaultSpec::dropped_sample(2.0)),
               std::invalid_argument);
  EXPECT_TRUE(inj2.empty());
  EXPECT_THROW(rf::FaultInjector({rf::FaultSpec::clip(0.1),
                                  rf::FaultSpec::lo_drift(-1.0)}),
               std::invalid_argument);
  // The boundaries are valid.
  EXPECT_EQ(rf::FaultInjector::parse("stuck:0,drop:1,contact:1:-0.05,lo:0:0")
                .faults()
                .size(),
            4u);
}

// Regression: parse read numbers with std::stod, which throws
// std::out_of_range (not std::invalid_argument) on "1e999" and on the
// subnormal "1e-320", and skips leading whitespace.
TEST(FaultParse, NumbersAreFiniteAndWholeOrTheSpecIsRejected) {
  for (const char* spec :
       {"clip:1e999", "clip:-1e999", "clip:1e-400", "lo:2e3:1e999",
        "clip: 0.1", "clip:0.1 ", "clip:+0.1", "clip:0.1x", "clip:"})
    EXPECT_THROW(rf::FaultInjector::parse(spec), std::invalid_argument)
        << spec;
  const auto tiny = rf::FaultInjector::parse("clip:1e-320");
  ASSERT_EQ(tiny.faults().size(), 1u);
  EXPECT_GT(tiny.faults()[0].p1, 0.0);
  try {
    (void)rf::FaultInjector::parse("clip:0.1,lo:1e999");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lo:1e999"), std::string::npos);
  }
}

// A term with more numbers than its fault takes names a different fault
// than it runs, so parse rejects it instead of dropping the extra numbers.
TEST(FaultParse, ExtraNumbersAreRejected) {
  for (const char* spec :
       {"clip:0.1:999", "clip:0.1:2:3:4", "gain:1e-3:7", "stuck:0.05:1",
        "drop:0.02:1", "lo:2e3:0.8:1", "contact:0.02:0.5:1",
        "wander:0.05:200e3:1", "clip:0.1,gain:1e-3:7"})
    EXPECT_THROW(rf::FaultInjector::parse(spec), std::invalid_argument)
        << spec;
  // Up to the fault's own count still parses; a second number left out of
  // a two-number fault is 0.
  const auto inj = rf::FaultInjector::parse("lo:2e3,contact:0.02,wander:0.05");
  ASSERT_EQ(inj.faults().size(), 3u);
  for (const rf::FaultSpec& f : inj.faults()) EXPECT_EQ(f.p2, 0.0);
}

TEST(SeedRobustness2, HardwareStudyQualityHoldsAcrossPopulations) {
  for (std::uint64_t seed : {11ull, 29ull, 47ull}) {
    const auto cfg = sigtest::SignatureTestConfig::hardware_study();
    const auto devices = rf::make_rf401_population({}, seed);
    const auto split = rf::split_population(devices, 28);
    stats::Rng srng(5);
    std::vector<double> bp(64);
    for (auto& v : bp) v = srng.uniform(-0.25, 0.25);
    const auto stim = dsp::PwlWaveform::uniform(cfg.capture_s, bp);
    sigtest::CalibrationOptions co;
    co.ridge_lambda = 1e-1;
    sigtest::TestCell runtime(cfg, stim, circuit::LnaSpecs::names(), {}, {},
                              co, 32);
    stats::Rng rng(seed + 7);
    runtime.calibrate(split.calibration, rng);
    const auto report = runtime.validate(split.validation, rng);
    EXPECT_GT(report.specs[0].r_squared, 0.85) << "gain, seed " << seed;
    EXPECT_LT(report.specs[0].rms_error, 0.45) << "gain, seed " << seed;
  }
}

}  // namespace
