// Tests for the ATE timing/cost/production-flow models.
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ate/cost.hpp"
#include "ate/flow.hpp"
#include "ate/timing.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf::ate;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- timing --

TEST(Timing, ConventionalPlanSumsTests) {
  ConventionalTestPlan plan;
  plan.tests = {{"a", 0.1, 0.2}, {"b", 0.3, 0.4}};
  plan.handler_index_s = 0.5;
  EXPECT_DOUBLE_EQ(plan.test_time_s(), 1.0);
  EXPECT_DOUBLE_EQ(plan.total_time_s(), 1.5);
}

TEST(Timing, SignaturePlanIsMuchFaster) {
  const auto conv = ConventionalTestPlan::typical_rf_frontend();
  const auto sig = SignatureTestPlan::paper_hardware_study();
  // The paper's core claim: signature test time is a small fraction of the
  // conventional sequence.
  EXPECT_LT(sig.test_time_s(), conv.test_time_s() / 5.0);
  EXPECT_NEAR(sig.capture_s, 5e-3, 1e-12);
}

TEST(Timing, PartsPerHour) {
  EXPECT_DOUBLE_EQ(parts_per_hour(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(parts_per_hour(0.5, 4), 28800.0);
  EXPECT_CONTRACT_THROW(parts_per_hour(0.0), std::invalid_argument);
  EXPECT_CONTRACT_THROW(parts_per_hour(1.0, 0), std::invalid_argument);
}

// ------------------------------------------------------------------ cost --

TEST(Cost, CostPerSecondScalesWithCapital) {
  TesterCostModel cheap = TesterCostModel::low_cost_tester();
  TesterCostModel pricey = TesterCostModel::high_end_rf_ate();
  EXPECT_GT(pricey.cost_per_second(), cheap.cost_per_second());
}

TEST(Cost, CostPerPartKnownValue) {
  TesterCostModel m;
  m.capital_usd = 365.25 * 24.0 * 3600.0;  // 1 USD per wall-clock second
  m.depreciation_years = 1.0;
  m.annual_opex_usd = 0.0;
  m.utilization = 1.0;
  EXPECT_NEAR(m.cost_per_part(2.0), 2.0, 1e-9);
  EXPECT_NEAR(m.cost_per_part(2.0, 4), 0.5, 1e-9);
}

TEST(Cost, InvalidParametersThrow) {
  TesterCostModel m;
  m.utilization = 0.0;
  EXPECT_CONTRACT_THROW(m.cost_per_second(), std::invalid_argument);
  TesterCostModel ok;
  EXPECT_CONTRACT_THROW(ok.cost_per_part(-1.0), std::invalid_argument);
}

TEST(Cost, SignatureFlowCheaperPerPart) {
  // The full economic claim: low-cost tester + short test beats the RF ATE
  // by a large factor.
  const auto conv_cost = TesterCostModel::high_end_rf_ate().cost_per_part(
      ConventionalTestPlan::typical_rf_frontend().total_time_s());
  const auto sig_cost = TesterCostModel::low_cost_tester().cost_per_part(
      SignatureTestPlan::paper_hardware_study().total_time_s());
  EXPECT_LT(sig_cost, conv_cost / 5.0);
}

// ------------------------------------------------------------------ flow --

TEST(Flow, PerfectPredictionsGiveNoErrors) {
  std::vector<std::vector<double>> specs = {{15.0}, {12.0}, {16.0}};
  std::vector<SpecLimit> limits = {{"gain", 14.0, kInf}};
  auto r = run_production_flow(specs, specs, limits);
  EXPECT_EQ(r.true_pass, 2);
  EXPECT_EQ(r.true_fail, 1);
  EXPECT_EQ(r.test_escape, 0);
  EXPECT_EQ(r.yield_loss, 0);
  EXPECT_DOUBLE_EQ(r.escape_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.yield_loss_rate(), 0.0);
}

TEST(Flow, MispredictionsClassified) {
  // Device 0: truly bad, predicted good -> escape.
  // Device 1: truly good, predicted bad -> yield loss.
  std::vector<std::vector<double>> truth = {{13.0}, {15.0}};
  std::vector<std::vector<double>> pred = {{14.5}, {13.5}};
  std::vector<SpecLimit> limits = {{"gain", 14.0, kInf}};
  auto r = run_production_flow(truth, pred, limits);
  EXPECT_EQ(r.test_escape, 1);
  EXPECT_EQ(r.yield_loss, 1);
  EXPECT_DOUBLE_EQ(r.escape_rate(), 1.0);
  EXPECT_DOUBLE_EQ(r.yield_loss_rate(), 1.0);
}

TEST(Flow, GuardBandTradesEscapesForYieldLoss) {
  // True gain 14.05 (barely good), predicted 14.15: passes without guard
  // band, fails with a 0.2 guard band.
  std::vector<std::vector<double>> truth = {{14.05}};
  std::vector<std::vector<double>> pred = {{14.15}};
  std::vector<SpecLimit> limits = {{"gain", 14.0, kInf}};
  auto loose = run_production_flow(truth, pred, limits, 0.0);
  EXPECT_EQ(loose.true_pass, 1);
  auto tight = run_production_flow(truth, pred, limits, 0.2);
  EXPECT_EQ(tight.yield_loss, 1);
}

TEST(Flow, TwoSidedAndMultipleLimits) {
  std::vector<SpecLimit> limits = {{"gain", 14.0, 18.0},
                                   {"nf", -kInf, 3.0}};
  std::vector<std::vector<double>> truth = {{15.0, 2.5}, {15.0, 3.5},
                                            {19.0, 2.0}};
  auto r = run_production_flow(truth, truth, limits);
  EXPECT_EQ(r.true_pass, 1);
  EXPECT_EQ(r.true_fail, 2);
}

/// A guarded-test disposition of `kind` with prediction `predicted`.
stf::sigtest::TestDisposition disposition(stf::sigtest::DispositionKind kind,
                                          std::vector<double> predicted) {
  stf::sigtest::TestDisposition d;
  d.kind = kind;
  d.predicted = std::move(predicted);
  return d;
}

using Kind = stf::sigtest::DispositionKind;

TEST(Flow, DispositionOverloadAccountsRoutedAndRetested) {
  // Device 0: good, predicted -> true pass.
  // Device 1: bad, predicted good after retry -> escape, counted retested.
  // Device 2: bad, routed to conventional (no prediction) -> exact decision,
  //           true fail, no escape.
  // Device 3: good, routed -> true pass even with an empty prediction.
  std::vector<std::vector<double>> truth = {{15.0}, {13.0}, {13.0}, {15.0}};
  std::vector<stf::sigtest::TestDisposition> lot = {
      disposition(Kind::kPredicted, {15.1}),
      disposition(Kind::kPredictedAfterRetry, {14.5}),
      disposition(Kind::kRoutedToConventional, {}),
      disposition(Kind::kRoutedToConventional, {})};
  std::vector<SpecLimit> limits = {{"gain", 14.0, kInf}};
  auto r = run_production_flow(truth, lot, limits);
  EXPECT_EQ(r.true_pass, 2);
  EXPECT_EQ(r.true_fail, 1);
  EXPECT_EQ(r.test_escape, 1);
  EXPECT_EQ(r.yield_loss, 0);
  EXPECT_EQ(r.retested, 1);
  EXPECT_EQ(r.routed_conventional, 2);
  EXPECT_EQ(r.total(), 4);
  // Routing the escaping device instead makes the escape impossible.
  lot[1].kind = Kind::kRoutedToConventional;
  auto r2 = run_production_flow(truth, lot, limits);
  EXPECT_EQ(r2.test_escape, 0);
  EXPECT_EQ(r2.true_fail, 2);
  EXPECT_EQ(r2.routed_conventional, 3);
}

TEST(Flow, DispositionOverloadMatchesLegacyWhenAllPredicted) {
  std::vector<std::vector<double>> truth = {{13.0}, {15.0}, {14.5}};
  std::vector<std::vector<double>> pred = {{14.5}, {13.5}, {14.6}};
  std::vector<SpecLimit> limits = {{"gain", 14.0, kInf}};
  std::vector<stf::sigtest::TestDisposition> lot;
  for (const auto& p : pred) lot.push_back(disposition(Kind::kPredicted, p));
  const auto legacy = run_production_flow(truth, pred, limits, 0.1);
  const auto typed = run_production_flow(truth, lot, limits, 0.1);
  EXPECT_EQ(typed.true_pass, legacy.true_pass);
  EXPECT_EQ(typed.true_fail, legacy.true_fail);
  EXPECT_EQ(typed.test_escape, legacy.test_escape);
  EXPECT_EQ(typed.yield_loss, legacy.yield_loss);
  EXPECT_EQ(typed.retested, 0);
  EXPECT_EQ(typed.routed_conventional, 0);
}

TEST(Flow, DispositionOverloadValidatesSizes) {
  std::vector<std::vector<double>> truth = {{15.0}, {15.0}};
  std::vector<SpecLimit> limits = {{"gain", 14.0, kInf}};
  const std::vector<stf::sigtest::TestDisposition> short_lot = {
      disposition(Kind::kPredicted, {15.0})};
  EXPECT_CONTRACT_THROW(run_production_flow(truth, short_lot, limits),
                        std::invalid_argument);
  // A predicted device with an empty prediction vector is a caller bug.
  const std::vector<stf::sigtest::TestDisposition> holey = {
      disposition(Kind::kPredicted, {15.0}), disposition(Kind::kPredicted, {})};
  EXPECT_CONTRACT_THROW(run_production_flow(truth, holey, limits),
                        std::invalid_argument);
}

TEST(Flow, InvalidInputsThrow) {
  std::vector<std::vector<double>> a = {{1.0}};
  std::vector<std::vector<double>> b = {{1.0}, {2.0}};
  std::vector<SpecLimit> limits = {{"x", 0.0, 2.0}};
  EXPECT_CONTRACT_THROW(run_production_flow(a, b, limits),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(run_production_flow(a, a, {}), std::invalid_argument);
  EXPECT_CONTRACT_THROW(run_production_flow(a, a, limits, -0.1),
                        std::invalid_argument);
  std::vector<std::vector<double>> wrong = {{1.0, 2.0}};
  EXPECT_CONTRACT_THROW(run_production_flow(wrong, wrong, limits),
                        std::invalid_argument);
}

}  // namespace
