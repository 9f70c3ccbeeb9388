// Tests for the Sallen-Key DUT and the baseband-analog signature flow.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/sallen_key.hpp"
#include "sigtest/analog.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;

// ------------------------------------------------------------ Sallen-Key --

TEST(SallenKey, NominalSpecsMatchDesignEquations) {
  const auto p = circuit::SallenKeyFilter::nominal();
  const auto specs = circuit::SallenKeyFilter::measure(p);
  // Unity-gain follower: passband gain ~ 0 dB (finite opamp gain costs a
  // fraction of a dB).
  EXPECT_NEAR(specs.gain_db, 0.0, 0.2);
  // f0 = 1/(2 pi sqrt(R1 R2 C1 C2)) ~ 7.3 kHz; for Q ~ 1.08 the -3 dB
  // point sits somewhat above f0.
  const double f0 =
      1.0 / (2.0 * M_PI * std::sqrt(p[0] * p[1] * p[2] * p[3]));
  EXPECT_GT(specs.f3db_hz, f0);
  EXPECT_LT(specs.f3db_hz, 2.0 * f0);
  // Q = 1.08 -> ~1.6 dB of peaking.
  EXPECT_GT(specs.peaking_db, 0.5);
  EXPECT_LT(specs.peaking_db, 3.0);
}

TEST(SallenKey, CutoffTracksComponentValues) {
  auto p = circuit::SallenKeyFilter::nominal();
  const double f_nom = circuit::SallenKeyFilter::measure(p).f3db_hz;
  // Doubling both capacitors halves the cutoff.
  p[2] *= 2.0;
  p[3] *= 2.0;
  const double f_slow = circuit::SallenKeyFilter::measure(p).f3db_hz;
  EXPECT_NEAR(f_slow / f_nom, 0.5, 0.05);
}

TEST(SallenKey, LowerOpampGainReducesAccuracy) {
  auto p = circuit::SallenKeyFilter::nominal();
  const double g_nom = circuit::SallenKeyFilter::measure(p).gain_db;
  p[4] *= 0.2;  // open-loop gain 100 -> 20
  const double g_weak = circuit::SallenKeyFilter::measure(p).gain_db;
  EXPECT_LT(g_weak, g_nom);  // follower error grows
}

TEST(SallenKey, BadProcessVectorThrows) {
  EXPECT_THROW(circuit::SallenKeyFilter::build({1.0, 2.0}),
               std::invalid_argument);
  auto p = circuit::SallenKeyFilter::nominal();
  p[0] = -1.0;
  EXPECT_THROW(circuit::SallenKeyFilter::build(p), std::invalid_argument);
}

TEST(SallenKey, SpecsVectorShape) {
  EXPECT_EQ(circuit::FilterSpecs::names().size(), 3u);
  circuit::FilterSpecs s;
  s.f3db_hz = 7.0;
  EXPECT_DOUBLE_EQ(s.to_vector()[1], 7.0);
}

// ------------------------------------------------------- analog signature --

sigtest::AnalogSignatureConfig test_config() {
  sigtest::AnalogSignatureConfig cfg;
  cfg.capture_s = 1e-3;
  cfg.sim_dt = 2e-6;
  cfg.fs_capture_hz = 32e3;
  return cfg;
}

dsp::PwlWaveform test_stimulus(double duration) {
  return dsp::PwlWaveform::uniform(
      duration, {0.0, 0.8, -0.6, 0.4, -0.9, 0.7, -0.2, 0.9, 0.0});
}

TEST(AnalogSignature, DeterministicWithoutNoise) {
  const auto cfg = test_config();
  const auto nl =
      circuit::SallenKeyFilter::build(circuit::SallenKeyFilter::nominal());
  const auto stim = test_stimulus(cfg.capture_s);
  const auto a = sigtest::acquire_analog_signature(nl, stim, cfg, nullptr);
  const auto b = sigtest::acquire_analog_signature(nl, stim, cfg, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), static_cast<std::size_t>(cfg.capture_s *
                                               cfg.fs_capture_hz) +
                          1);
}

TEST(AnalogSignature, SlowFilterSmoothsResponseMore) {
  // A slower filter attenuates the stimulus' fast transitions: its
  // signature has less high-frequency energy (smaller sample-to-sample
  // differences).
  const auto cfg = test_config();
  const auto stim = test_stimulus(cfg.capture_s);
  auto fast_p = circuit::SallenKeyFilter::nominal();
  auto slow_p = fast_p;
  slow_p[2] *= 4.0;
  slow_p[3] *= 4.0;
  const auto fast = sigtest::acquire_analog_signature(
      circuit::SallenKeyFilter::build(fast_p), stim, cfg, nullptr);
  const auto slow = sigtest::acquire_analog_signature(
      circuit::SallenKeyFilter::build(slow_p), stim, cfg, nullptr);
  auto roughness = [](const std::vector<double>& v) {
    double r = 0.0;
    for (std::size_t i = 1; i < v.size(); ++i)
      r += (v[i] - v[i - 1]) * (v[i] - v[i - 1]);
    return r;
  };
  EXPECT_LT(roughness(slow), 0.7 * roughness(fast));
}

TEST(AnalogSignature, BadConfigThrows) {
  const auto nl =
      circuit::SallenKeyFilter::build(circuit::SallenKeyFilter::nominal());
  auto cfg = test_config();
  const auto stim = test_stimulus(cfg.capture_s);
  cfg.sim_dt = 0.0;
  EXPECT_CONTRACT_THROW(
      sigtest::acquire_analog_signature(nl, stim, cfg, nullptr),
      std::invalid_argument);
  cfg = test_config();
  cfg.fs_capture_hz = -1.0;
  EXPECT_CONTRACT_THROW(
      sigtest::acquire_analog_signature(nl, stim, cfg, nullptr),
      std::invalid_argument);
  cfg = test_config();
  cfg.out_node = "nope";
  EXPECT_THROW(sigtest::acquire_analog_signature(nl, stim, cfg, nullptr),
               std::invalid_argument);
}

TEST(AnalogSignature, PopulationGeneration) {
  const auto pop = sigtest::make_filter_population(12, 0.2, 3);
  ASSERT_EQ(pop.size(), 12u);
  bool cutoff_varies = false;
  for (std::size_t i = 1; i < pop.size(); ++i)
    cutoff_varies |= pop[i].specs.f3db_hz != pop[0].specs.f3db_hz;
  EXPECT_TRUE(cutoff_varies);
  EXPECT_CONTRACT_THROW(sigtest::make_filter_population(0, 0.2, 3),
                        std::invalid_argument);
}

TEST(AnalogSignature, RuntimePredictsFilterSpecs) {
  // The headline property of the original (baseband) signature test: the
  // transient response predicts AC-domain specs accurately.
  const auto pop = sigtest::make_filter_population(50, 0.2, 3);
  std::vector<sigtest::AnalogDeviceRecord> train(pop.begin(),
                                                 pop.begin() + 38);
  std::vector<sigtest::AnalogDeviceRecord> val(pop.begin() + 38, pop.end());
  const auto cfg = test_config();
  sigtest::AnalogSignatureRuntime rt(cfg, test_stimulus(cfg.capture_s));
  stats::Rng rng(7);
  EXPECT_CONTRACT_THROW(rt.test_device(pop[0].process, rng), std::logic_error);
  rt.calibrate(train, rng);
  ASSERT_TRUE(rt.calibrated());
  const auto rep = rt.validate(val, rng);
  // Cutoff frequency: R^2 > 0.99 over a ~5 kHz spread.
  EXPECT_GT(rep.r_squared[1], 0.99);
  EXPECT_LT(rep.rms_error[1], 100.0);  // Hz
  // Peaking also tracks well.
  EXPECT_GT(rep.r_squared[2], 0.9);
}

}  // namespace
