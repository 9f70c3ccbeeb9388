// Tests for the 900 MHz LNA device-under-test model.
#include <cmath>

#include <gtest/gtest.h>

#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/lna900.hpp"
#include "circuit/rfmeasure.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf::circuit;

TEST(Lna900, NominalBiasPoint) {
  auto nl = Lna900::build(Lna900::nominal());
  auto dc = solve_dc(nl);
  ASSERT_EQ(dc.bjt_op.size(), 1u);
  // Base-current bias: Ic ~= bf * (VCC - Vbe) / RB1 ~= 3 mA.
  EXPECT_GT(dc.bjt_op[0].ic, 1e-3);
  EXPECT_LT(dc.bjt_op[0].ic, 6e-3);
  // Collector sits at the supply (inductive DC feed).
  EXPECT_NEAR(dc.voltage(nl.node("nc")), 3.0, 0.01);
  // Emitter is a DC short to ground through LE.
  EXPECT_NEAR(dc.voltage(nl.node("ne")), 0.0, 1e-6);
}

TEST(Lna900, NominalSpecsInDesignRange) {
  auto specs = Lna900::measure(Lna900::nominal());
  EXPECT_GT(specs.gain_db, 13.0);
  EXPECT_LT(specs.gain_db, 18.0);
  EXPECT_GT(specs.nf_db, 1.5);
  EXPECT_LT(specs.nf_db, 4.0);
  EXPECT_GT(specs.iip3_dbm, -15.0);
  EXPECT_LT(specs.iip3_dbm, 0.0);
}

TEST(Lna900, GainPeaksNear900MHz) {
  auto nl = Lna900::build(Lna900::nominal());
  auto dc = solve_dc(nl);
  AcAnalysis ac(nl, dc);
  const RfPort p = Lna900::port();
  const double g900 = transducer_gain_db(ac, 900e6, p);
  EXPECT_GT(g900, transducer_gain_db(ac, 600e6, p));
  EXPECT_GT(g900, transducer_gain_db(ac, 1300e6, p));
}

TEST(Lna900, MeasureIsDeterministic) {
  auto a = Lna900::measure(Lna900::nominal());
  auto b = Lna900::measure(Lna900::nominal());
  EXPECT_DOUBLE_EQ(a.gain_db, b.gain_db);
  EXPECT_DOUBLE_EQ(a.nf_db, b.nf_db);
  EXPECT_DOUBLE_EQ(a.iip3_dbm, b.iip3_dbm);
}

TEST(Lna900, WrongProcessVectorSizeThrows) {
  EXPECT_CONTRACT_THROW(Lna900::build(std::vector<double>(3, 1.0)),
                        std::invalid_argument);
  auto p = Lna900::nominal();
  p[0] = -1.0;
  EXPECT_THROW(Lna900::build(p), std::invalid_argument);
}

TEST(Lna900, SpecsVectorRoundTrip) {
  LnaSpecs s;
  s.gain_db = 1.0;
  s.nf_db = 2.0;
  s.iip3_dbm = 3.0;
  auto v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(LnaSpecs::names().size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

// Every process parameter must actually move at least one specification --
// otherwise the paper's premise (signatures predict specs because both
// respond to process) would silently fail for that parameter.
class ParamSensitivity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParamSensitivity, ParameterMovesSomeSpec) {
  const std::size_t idx = GetParam();
  auto nominal = Lna900::nominal();
  auto specs0 = Lna900::measure(nominal);
  auto perturbed = nominal;
  perturbed[idx] *= 1.15;
  auto specs1 = Lna900::measure(perturbed);
  const double delta = std::abs(specs1.gain_db - specs0.gain_db) +
                       std::abs(specs1.nf_db - specs0.nf_db) +
                       std::abs(specs1.iip3_dbm - specs0.iip3_dbm);
  EXPECT_GT(delta, 1e-4) << "parameter " << Lna900::param_names()[idx];
}

INSTANTIATE_TEST_SUITE_P(AllParams, ParamSensitivity,
                         ::testing::Range<std::size_t>(0, Lna900::kNumParams));

TEST(Lna900, PopulationSpreadMatchesPaperScale) {
  // +/-20% process spread should produce roughly the paper's 2-3 dB gain
  // spread (Fig. 8) -- not zero, not tens of dB.
  stf::stats::UniformBox box{Lna900::nominal(), 0.2};
  stf::stats::Rng rng(7);
  double gmin = 1e9, gmax = -1e9;
  for (int i = 0; i < 30; ++i) {
    auto s = Lna900::measure(box.sample(rng));
    gmin = std::min(gmin, s.gain_db);
    gmax = std::max(gmax, s.gain_db);
  }
  EXPECT_GT(gmax - gmin, 0.5);
  EXPECT_LT(gmax - gmin, 8.0);
}

TEST(Lna900, EveryDrawnDeviceConverges) {
  stf::stats::UniformBox box{Lna900::nominal(), 0.2};
  stf::stats::Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NO_THROW(Lna900::measure(box.sample(rng)));
  }
}

}  // namespace
