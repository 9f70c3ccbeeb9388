// Tests for the framework extensions: S-parameters, outlier screening,
// parametric fault diagnosis.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/dc.hpp"
#include "circuit/lna900.hpp"
#include "circuit/sparams.hpp"
#include "rf/population.hpp"
#include "sigtest/diagnosis.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;
using circuit::AcAnalysis;
using circuit::Netlist;

// ------------------------------------------------------------ S-parameters --

TEST(SParams, MatchedThruIsPerfect) {
  // Source -> 50 ohm -> node -> 50 ohm load: S11 = 0, S21 = 1 (0 dB).
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_resistor("RL", "nin", "0", 50.0);
  const auto dc = circuit::solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  circuit::TwoPortSetup tp;
  tp.input_node = "nin";
  tp.output_node = "nin";
  const auto s = circuit::s_parameters(ac, 1e9, tp);
  EXPECT_NEAR(std::abs(s.s11), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(s.s21), 1.0, 1e-9);
  EXPECT_NEAR(s.s21_db(), 0.0, 1e-6);
}

TEST(SParams, OpenPortReflectsEverything) {
  // Port left open (huge shunt): S11 -> +1.
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_resistor("ROPEN", "nin", "0", 1e12);
  const auto dc = circuit::solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  circuit::TwoPortSetup tp;
  tp.input_node = "nin";
  tp.output_node = "nin";
  const auto s = circuit::s_parameters(ac, 1e9, tp);
  EXPECT_NEAR(s.s11.real(), 1.0, 1e-6);
}

TEST(SParams, ShortedPortReflectsInverted) {
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_resistor("RSHORT", "nin", "0", 1e-9);
  const auto dc = circuit::solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  circuit::TwoPortSetup tp;
  tp.input_node = "nin";
  tp.output_node = "nin";
  const auto s = circuit::s_parameters(ac, 1e9, tp);
  EXPECT_NEAR(s.s11.real(), -1.0, 1e-6);
}

TEST(SParams, LnaInputMatchAndGain) {
  // The LNA is designed for a ~50 ohm match at 900 MHz: S11 clearly below
  // 0 dB, and |S21|^2 equal to the transducer gain.
  const auto nl = circuit::Lna900::build(circuit::Lna900::nominal());
  const auto dc = circuit::solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  circuit::TwoPortSetup tp;
  tp.input_node = "nin";
  tp.output_node = "out";
  const auto s = circuit::s_parameters(ac, circuit::Lna900::kF0, tp);
  EXPECT_LT(s.s11_db(), -5.0);
  const double gt =
      circuit::transducer_gain_db(ac, circuit::Lna900::kF0,
                                  circuit::Lna900::port());
  EXPECT_NEAR(s.s21_db(), gt, 1e-6);
}

TEST(SParams, BadSetupThrows) {
  Netlist nl;
  nl.add_vsource("VS", "src", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("RS", "src", "nin", 50.0);
  nl.add_resistor("RL", "nin", "0", 50.0);
  const auto dc = circuit::solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  circuit::TwoPortSetup tp;
  tp.input_node = "nope";
  EXPECT_THROW(circuit::s_parameters(ac, 1e9, tp), std::invalid_argument);
  tp.input_node = "nin";
  tp.output_node = "nin";
  tp.z0 = -1.0;
  EXPECT_CONTRACT_THROW(circuit::s_parameters(ac, 1e9, tp),
                        std::invalid_argument);
}

// --------------------------------------------------------- outlier screen --

TEST(Outlier, InPopulationScoresNearOne) {
  stats::Rng rng(3);
  const std::size_t n = 200, m = 8;
  la::Matrix sig(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      sig(i, j) = 10.0 * (j + 1.0) + rng.normal(0.0, 1.0);
  sigtest::OutlierScreen screen;
  screen.fit(sig);
  // A fresh in-distribution draw scores ~1.
  sigtest::Signature probe(m);
  for (std::size_t j = 0; j < m; ++j)
    probe[j] = 10.0 * (j + 1.0) + rng.normal(0.0, 1.0);
  EXPECT_LT(screen.score(probe), 2.5);
  EXPECT_FALSE(screen.is_outlier(probe));
}

TEST(Outlier, FarSignatureFlagged) {
  stats::Rng rng(5);
  const std::size_t n = 100, m = 6;
  la::Matrix sig(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.normal(0.0, 1.0);
  sigtest::OutlierScreen screen;
  screen.fit(sig);
  sigtest::Signature freak(m, 25.0);  // 25 sigma on every bin
  EXPECT_TRUE(screen.is_outlier(freak));
  EXPECT_GT(screen.score(freak), 10.0);
}

TEST(Outlier, MisuseThrows) {
  sigtest::OutlierScreen screen;
  EXPECT_CONTRACT_THROW(screen.score({1.0}), std::logic_error);
  la::Matrix one_row(1, 3);
  EXPECT_CONTRACT_THROW(screen.fit(one_row), std::invalid_argument);
  la::Matrix ok(5, 3);
  EXPECT_CONTRACT_THROW(screen.fit(ok, {1.0}), std::invalid_argument);
  screen.fit(ok);
  EXPECT_CONTRACT_THROW(screen.score({1.0}), std::invalid_argument);
  EXPECT_CONTRACT_THROW(screen.is_outlier({1.0, 2.0, 3.0}, -1.0),
                        std::invalid_argument);
}

TEST(Outlier, DefectiveLnaCaughtBeforePrediction) {
  // The production scenario: the screen is fitted on the calibration lot;
  // a catastrophically defective device (tank capacitor 5x nominal --
  // outside any process corner) must score far above the population.
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::SignatureAcquirer acq(cfg, 16);
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.25, -0.25, 0.1, -0.1, 0.2, -0.2, 0.0});
  const auto devices = rf::make_lna_population(40, 0.2, 11);

  stats::Rng rng(7);
  la::Matrix sigs(devices.size(), acq.signature_length());
  for (std::size_t i = 0; i < devices.size(); ++i)
    sigs.set_row(i, acq.acquire(*devices[i].dut, stim, &rng));
  sigtest::OutlierScreen screen;
  screen.fit(sigs);

  // In-population device: modest score.
  const auto good = acq.acquire(*devices[0].dut, stim, &rng);
  // Defective device: current gain collapsed to a tenth of nominal (a
  // classic parametric defect) -- bias and gain crater together.
  auto defect_process = circuit::Lna900::nominal();
  defect_process[6] *= 0.1;
  const auto defect = rf::extract_lna_dut(defect_process);
  const auto bad = acq.acquire(*defect.dut, stim, &rng);

  // The population scores ~1; the defect scores several sigma out (weak
  // noise-dominated bins dilute the average, so the practical threshold
  // sits between the two).
  EXPECT_LT(screen.score(good), 2.0);
  EXPECT_GT(screen.score(bad), 3.0);
  EXPECT_TRUE(screen.is_outlier(bad, 2.5));
  EXPECT_FALSE(screen.is_outlier(good, 2.5));
}

// ------------------------------------------------------------- diagnosis --

TEST(Diagnosis, RecoversDominantProcessParameters) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.25, -0.25, 0.1, -0.1, 0.3, -0.3, 0.15, -0.15,
                      0.05});
  const auto devices = rf::make_lna_population(120, 0.2, 21);
  std::vector<rf::DeviceRecord> train(devices.begin(), devices.begin() + 100);
  std::vector<rf::DeviceRecord> val(devices.begin() + 100, devices.end());

  std::vector<std::string> names(circuit::Lna900::param_names().begin(),
                                 circuit::Lna900::param_names().end());
  sigtest::ParametricDiagnoser diag(cfg, stim, names);
  stats::Rng rng(13);
  EXPECT_CONTRACT_THROW(diag.diagnose(*devices[0].dut, rng), std::logic_error);
  diag.calibrate(train, rng);
  ASSERT_TRUE(diag.calibrated());

  const auto report =
      diag.validate(val, circuit::Lna900::nominal(), rng);
  ASSERT_EQ(report.names.size(), circuit::Lna900::kNumParams);

  // The bias resistor RB1 and gain beta_f dominate gain/IIP3 variation, so
  // they must be recoverable; parameters with little observable effect
  // (e.g. VAF) are allowed to stay poorly identified.
  double best_r2 = -1e9;
  for (double r2 : report.r_squared) best_r2 = std::max(best_r2, r2);
  EXPECT_GT(best_r2, 0.45);
  // Errors are finite and reported in percent of nominal.
  for (std::size_t j = 0; j < report.names.size(); ++j) {
    EXPECT_TRUE(std::isfinite(report.rms_percent[j]));
    EXPECT_GT(report.rms_percent[j], 0.0);
  }
}

TEST(Diagnosis, MisuseThrows) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto stim = dsp::PwlWaveform::uniform(cfg.capture_s, {0.0, 0.1});
  EXPECT_CONTRACT_THROW(
      sigtest::ParametricDiagnoser(cfg, stim, std::vector<std::string>{}),
      std::invalid_argument);
  std::vector<std::string> names = {"a", "b"};
  sigtest::ParametricDiagnoser diag(cfg, stim, names);
  const auto devices = rf::make_lna_population(3, 0.2, 9);
  stats::Rng rng(1);
  std::vector<rf::DeviceRecord> one(devices.begin(), devices.begin() + 1);
  EXPECT_CONTRACT_THROW(diag.calibrate(one, rng), std::invalid_argument);
}

}  // namespace
