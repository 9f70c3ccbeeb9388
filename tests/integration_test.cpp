// Integration tests: the complete signature-test flow end to end, at
// reduced scale so the suite stays fast.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/lna900.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;

sigtest::StimulusOptimizerConfig small_ga_config(double capture_s) {
  sigtest::StimulusOptimizerConfig oc;
  oc.encoding.n_breakpoints = 12;
  oc.encoding.duration_s = capture_s;
  oc.encoding.v_min = -0.45;
  oc.encoding.v_max = 0.45;
  oc.ga.population = 16;
  oc.ga.generations = 10;
  oc.ga.seed = 3;
  return oc;
}

// Shared fixture state: the expensive pieces are built once.
class FullFlow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new sigtest::SignatureTestConfig(
        sigtest::SignatureTestConfig::simulation_study());
    perturb_ = new sigtest::PerturbationSet(sigtest::lna900_factory(),
                                            circuit::Lna900::nominal(), 0.05);
    acquirer_ = new sigtest::SignatureAcquirer(*cfg_, 16);
    auto opt = sigtest::optimize_stimulus(*perturb_, *acquirer_,
                                          small_ga_config(cfg_->capture_s));
    stimulus_ = new dsp::PwlWaveform(opt.waveform);
    objective_history_ = new std::vector<double>(opt.history);
    devices_ = new std::vector<rf::DeviceRecord>(
        rf::make_lna_population(60, 0.2, 42));
  }
  static void TearDownTestSuite() {
    delete cfg_;
    delete perturb_;
    delete acquirer_;
    delete stimulus_;
    delete objective_history_;
    delete devices_;
  }

  static sigtest::SignatureTestConfig* cfg_;
  static sigtest::PerturbationSet* perturb_;
  static sigtest::SignatureAcquirer* acquirer_;
  static dsp::PwlWaveform* stimulus_;
  static std::vector<double>* objective_history_;
  static std::vector<rf::DeviceRecord>* devices_;
};

sigtest::SignatureTestConfig* FullFlow::cfg_ = nullptr;
sigtest::PerturbationSet* FullFlow::perturb_ = nullptr;
sigtest::SignatureAcquirer* FullFlow::acquirer_ = nullptr;
dsp::PwlWaveform* FullFlow::stimulus_ = nullptr;
std::vector<double>* FullFlow::objective_history_ = nullptr;
std::vector<rf::DeviceRecord>* FullFlow::devices_ = nullptr;

TEST_F(FullFlow, GaObjectiveImproves) {
  const auto& h = *objective_history_;
  ASSERT_GE(h.size(), 2u);
  EXPECT_LT(h.back(), h.front());
}

TEST_F(FullFlow, CalibrateAndValidatePredictsSpecs) {
  auto split = rf::split_population(*devices_, 45);
  sigtest::TestCell runtime(*cfg_, *stimulus_, circuit::LnaSpecs::names());
  stats::Rng rng(9);
  runtime.calibrate(split.calibration, rng);
  ASSERT_TRUE(runtime.calibrated());
  auto report = runtime.validate(split.validation, rng);
  ASSERT_EQ(report.specs.size(), 3u);

  // Gain predicted well within the population spread.
  const auto& gain = report.specs[0];
  EXPECT_LT(gain.std_error, 0.15);
  EXPECT_GT(gain.r_squared, 0.85);
  // IIP3 tracks well too (the paper's best-correlated spec).
  const auto& iip3 = report.specs[2];
  EXPECT_GT(iip3.r_squared, 0.8);
  // NF is the hardest spec (paper: 6x worse than gain); it should still
  // carry some signal but is allowed to be the worst.
  const auto& nf = report.specs[1];
  EXPECT_LT(nf.r_squared, gain.r_squared);
}

TEST_F(FullFlow, TestDeviceMatchesTrueSpecs) {
  auto split = rf::split_population(*devices_, 45);
  sigtest::TestCell runtime(*cfg_, *stimulus_, circuit::LnaSpecs::names(),
                            sigtest::GuardPolicy::unguarded());
  stats::Rng rng(11);
  runtime.calibrate(split.calibration, rng);
  const auto& dev = split.validation.front();
  const auto predicted = runtime.test_device(*dev.dut, rng).predicted;
  ASSERT_EQ(predicted.size(), 3u);
  // Single-device spot check (statistical quality is asserted in
  // CalibrateAndValidatePredictsSpecs); tolerances sized for one draw from
  // a 45-device calibration.
  EXPECT_NEAR(predicted[0], dev.specs.gain_db, 0.8);
  EXPECT_NEAR(predicted[2], dev.specs.iip3_dbm, 1.5);
}

TEST_F(FullFlow, UncalibratedRuntimeThrows) {
  sigtest::TestCell runtime(*cfg_, *stimulus_, circuit::LnaSpecs::names());
  stats::Rng rng(3);
  EXPECT_CONTRACT_THROW(runtime.test_device(*devices_->front().dut, rng),
                        std::logic_error);
  EXPECT_CONTRACT_THROW(runtime.validate(*devices_, rng), std::logic_error);
}

TEST_F(FullFlow, OptimizedBeatsConstantStimulus) {
  // Eq. 10 objective of the GA result vs. a flat DC stimulus: the flat
  // stimulus carries no modulation diversity and must score worse.
  const auto flat = dsp::PwlWaveform::uniform(
      cfg_->capture_s, std::vector<double>(12, 0.25));
  const auto opt_obj =
      sigtest::evaluate_stimulus(*perturb_, *acquirer_, *stimulus_);
  const auto flat_obj =
      sigtest::evaluate_stimulus(*perturb_, *acquirer_, flat);
  EXPECT_LT(opt_obj.f, flat_obj.f);
}

TEST_F(FullFlow, HardwareStudyConfigRuns) {
  // The 5 ms / 1 MHz configuration must run the whole loop on the
  // behavioral RF401 population.
  const auto cfg = sigtest::SignatureTestConfig::hardware_study();
  auto devices = rf::make_rf401_population({}, 19);
  auto split = rf::split_population(devices, 28);

  // Behavioral-model optimization stand-in: a rich multi-level stimulus
  // (the paper used a behavioral-model-optimized stimulus here). The
  // modulation must be fast enough that compression sidebands land in
  // distinct signature bins from the main beat.
  stats::Rng srng(5);
  std::vector<double> bp(64);
  for (auto& v : bp) v = srng.uniform(-0.25, 0.25);
  const auto stim = dsp::PwlWaveform::uniform(cfg.capture_s, bp);
  sigtest::CalibrationOptions co;
  co.ridge_lambda = 1e-1;
  sigtest::TestCell runtime(cfg, stim, circuit::LnaSpecs::names(), {}, {}, co,
                            32);
  stats::Rng rng(24);
  runtime.calibrate(split.calibration, rng);
  auto report = runtime.validate(split.validation, rng);
  // 27 validation devices; gain strongly and IIP3 usefully correlated.
  ASSERT_EQ(report.specs[0].truth.size(), 27u);
  EXPECT_GT(report.specs[0].r_squared, 0.9);
  EXPECT_LT(report.specs[0].rms_error, 0.4);
  EXPECT_GT(report.specs[2].r_squared, 0.3);
}

}  // namespace
