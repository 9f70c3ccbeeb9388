// Tests for model serialization, Welch PSD, the k-NN regressor, and the
// two-stage test flow.
#include <cmath>
#include <limits>
#include <numbers>

#include <gtest/gtest.h>

#include "ate/flow.hpp"
#include "dsp/spectrum.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/knn.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;
constexpr double kInf = std::numeric_limits<double>::infinity();

// ----------------------------------------------------- model serialization --

TEST(Serialization, RoundTripPredictsIdentically) {
  stats::Rng rng(11);
  const std::size_t n = 40, m = 5;
  la::Matrix sig(n, m), specs(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    specs(i, 0) = 3.0 * sig(i, 0) - sig(i, 2);
    specs(i, 1) = sig(i, 1) * sig(i, 1);
  }
  sigtest::CalibrationModel model;
  std::vector<double> noise_var(m, 1e-6);
  model.fit(sig, specs, noise_var);

  const std::string text = model.serialize();
  const auto restored = sigtest::CalibrationModel::deserialize(text);
  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.n_specs(), 2u);
  EXPECT_EQ(restored.signature_length(), m);

  stats::Rng probe_rng(13);
  for (int t = 0; t < 20; ++t) {
    sigtest::Signature probe(m);
    for (auto& v : probe) v = probe_rng.uniform(0.0, 1.0);
    const auto a = model.predict(probe);
    const auto b = restored.predict(probe);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s)
      EXPECT_DOUBLE_EQ(a[s], b[s]);
  }
}

TEST(Serialization, RejectsCorruptedInput) {
  EXPECT_THROW(sigtest::CalibrationModel::deserialize(""),
               std::invalid_argument);
  EXPECT_THROW(sigtest::CalibrationModel::deserialize("garbage v9"),
               std::invalid_argument);

  stats::Rng rng(3);
  la::Matrix sig(10, 2), specs(10, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    sig(i, 0) = rng.normal();
    sig(i, 1) = rng.normal();
    specs(i, 0) = sig(i, 0);
  }
  sigtest::CalibrationModel model;
  model.fit(sig, specs);
  std::string text = model.serialize();
  // Truncate mid-weights.
  EXPECT_THROW(sigtest::CalibrationModel::deserialize(
                   text.substr(0, text.size() / 2)),
               std::invalid_argument);
  // Unfitted model cannot serialize.
  sigtest::CalibrationModel fresh;
  EXPECT_THROW(fresh.serialize(), std::logic_error);
}

// -------------------------------------------------------------- Welch PSD --

TEST(Welch, WhiteNoiseFloorIsFlatAtSigmaSquaredOverFs) {
  // White noise of variance sigma^2 sampled at fs has one-sided PSD
  // 2 sigma^2 / fs.
  stats::Rng rng(7);
  const double fs = 1e6, sigma = 1e-3;
  std::vector<double> x(1 << 15);
  for (auto& v : x) v = rng.normal(0.0, sigma);
  const auto psd = dsp::welch_psd(x, fs, 256);
  const double expected = 2.0 * sigma * sigma / fs;
  // Average mid-band bins (skip DC/Nyquist edges).
  double avg = 0.0;
  std::size_t count = 0;
  for (std::size_t k = 5; k + 5 < psd.size(); ++k) {
    avg += psd[k];
    ++count;
  }
  avg /= static_cast<double>(count);
  EXPECT_NEAR(avg / expected, 1.0, 0.1);
}

TEST(Welch, TonePowerRecovered) {
  // Integrating the PSD across a tone's bins recovers A^2/2.
  const double fs = 100e3, amp = 0.5, freq = 12.5e3;
  std::vector<double> x(1 << 14);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = amp * std::cos(2.0 * std::numbers::pi * freq *
                          static_cast<double>(i) / fs);
  const std::size_t segment = 512;
  const auto psd = dsp::welch_psd(x, fs, segment);
  const double df = fs / static_cast<double>(segment);
  double power = 0.0;
  for (double v : psd) power += v * df;
  EXPECT_NEAR(power, amp * amp / 2.0, 0.05 * amp * amp / 2.0);
}

TEST(Welch, MoreSegmentsLowerVariance) {
  stats::Rng rng(9);
  std::vector<double> x(1 << 14);
  for (auto& v : x) v = rng.normal();
  auto spread = [&](std::size_t segment) {
    const auto psd = dsp::welch_psd(x, 1.0, segment);
    double mu = 0.0;
    for (double v : psd) mu += v;
    mu /= static_cast<double>(psd.size());
    double var = 0.0;
    for (double v : psd) var += (v - mu) * (v - mu);
    return var / (mu * mu * static_cast<double>(psd.size()));
  };
  // Short segments -> many averages -> much flatter estimate.
  EXPECT_LT(spread(128), 0.5 * spread(4096));
}

TEST(Welch, InvalidArgumentsThrow) {
  std::vector<double> x(100, 0.0);
  EXPECT_THROW(dsp::welch_psd(x, 1.0, 200), std::invalid_argument);
  EXPECT_THROW(dsp::welch_psd(x, 0.0, 50), std::invalid_argument);
  EXPECT_THROW(dsp::welch_psd(x, 1.0, 50, 1.5), std::invalid_argument);
}

// ------------------------------------------------------------------ k-NN --

TEST(Knn, ExactTrainingPointRecalled) {
  stats::Rng rng(3);
  const std::size_t n = 20, m = 4;
  la::Matrix sig(n, m), specs(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    specs(i, 0) = rng.normal();
  }
  sigtest::KnnRegressor knn(3);
  knn.fit(sig, specs);
  // Querying a training signature returns that device's spec exactly.
  const auto p = knn.predict(sig.row(7));
  EXPECT_DOUBLE_EQ(p[0], specs(7, 0));
}

TEST(Knn, SmoothMapApproximated) {
  stats::Rng rng(5);
  const std::size_t n = 400, m = 2;
  la::Matrix sig(n, m), specs(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    sig(i, 0) = rng.uniform(0.0, 1.0);
    sig(i, 1) = rng.uniform(0.0, 1.0);
    specs(i, 0) = 2.0 * sig(i, 0) + sig(i, 1);
  }
  sigtest::KnnRegressor knn(5);
  knn.fit(sig, specs);
  double err = 0.0;
  int count = 0;
  for (double a = 0.2; a <= 0.8; a += 0.1) {
    for (double b = 0.2; b <= 0.8; b += 0.1) {
      err += std::abs(knn.predict({a, b})[0] - (2.0 * a + b));
      ++count;
    }
  }
  EXPECT_LT(err / count, 0.1);
}

TEST(Knn, MisuseThrows) {
  EXPECT_THROW(sigtest::KnnRegressor(0), std::invalid_argument);
  sigtest::KnnRegressor knn(5);
  EXPECT_THROW(knn.predict({1.0}), std::logic_error);
  la::Matrix sig(3, 2), specs(3, 1);  // rows < k
  EXPECT_THROW(knn.fit(sig, specs), std::invalid_argument);
  la::Matrix ok(8, 2), bad_specs(7, 1);
  EXPECT_THROW(knn.fit(ok, bad_specs), std::invalid_argument);
  la::Matrix good_specs(8, 1);
  knn.fit(ok, good_specs);
  EXPECT_THROW(knn.predict({1.0, 2.0, 3.0}), std::invalid_argument);
}

// --------------------------------------------------------- two-stage flow --

TEST(TwoStage, PerfectPredictionsPackageOnlyGoodDies) {
  std::vector<std::vector<double>> truth = {{15.0}, {10.0}, {16.0}, {12.0}};
  std::vector<ate::SpecLimit> limits = {{"gain", 14.0, kInf}};
  ate::TwoStageCosts costs;
  const auto r = ate::run_two_stage_flow(truth, truth, truth, limits, costs);
  EXPECT_EQ(r.dies, 4);
  EXPECT_EQ(r.packaged, 2);
  EXPECT_EQ(r.shipped, 2);
  EXPECT_EQ(r.shipped_bad, 0);
  EXPECT_EQ(r.good_scrapped_at_wafer, 0);
  // Savings: two packages + two final tests avoided, minus 4 wafer tests.
  const double expected_saving =
      2.0 * (costs.package_usd + costs.final_test_usd) -
      4.0 * costs.wafer_test_usd;
  EXPECT_NEAR(r.cost_saved(), expected_saving, 1e-9);
}

TEST(TwoStage, WaferEscapeCaughtAtFinal) {
  // Die 0 is bad but the wafer screen passes it; final test catches it.
  std::vector<std::vector<double>> truth = {{10.0}};
  std::vector<std::vector<double>> wafer = {{15.0}};
  std::vector<std::vector<double>> final_pred = {{10.0}};
  std::vector<ate::SpecLimit> limits = {{"gain", 14.0, kInf}};
  const auto r = ate::run_two_stage_flow(truth, wafer, final_pred, limits,
                                         ate::TwoStageCosts{});
  EXPECT_EQ(r.packaged, 1);
  EXPECT_EQ(r.shipped, 0);
  EXPECT_EQ(r.shipped_bad, 0);
}

TEST(TwoStage, BothStagesFooledIsAnEscape) {
  std::vector<std::vector<double>> truth = {{10.0}};
  std::vector<std::vector<double>> optimistic = {{15.0}};
  std::vector<ate::SpecLimit> limits = {{"gain", 14.0, kInf}};
  const auto r = ate::run_two_stage_flow(truth, optimistic, optimistic,
                                         limits, ate::TwoStageCosts{});
  EXPECT_EQ(r.shipped, 1);
  EXPECT_EQ(r.shipped_bad, 1);
}

TEST(TwoStage, WaferGuardScrapsBorderlineGoodDie) {
  std::vector<std::vector<double>> truth = {{14.1}};
  std::vector<ate::SpecLimit> limits = {{"gain", 14.0, kInf}};
  const auto r = ate::run_two_stage_flow(truth, truth, truth, limits,
                                         ate::TwoStageCosts{}, 0.5, 0.0);
  EXPECT_EQ(r.packaged, 0);
  EXPECT_EQ(r.good_scrapped_at_wafer, 1);
}

TEST(TwoStage, InvalidInputsThrow) {
  std::vector<std::vector<double>> a = {{1.0}};
  std::vector<std::vector<double>> b = {{1.0}, {2.0}};
  std::vector<ate::SpecLimit> limits = {{"x", 0.0, 2.0}};
  EXPECT_THROW(
      ate::run_two_stage_flow(a, b, a, limits, ate::TwoStageCosts{}),
      std::invalid_argument);
  EXPECT_THROW(ate::run_two_stage_flow(a, a, a, {}, ate::TwoStageCosts{}),
               std::invalid_argument);
  EXPECT_THROW(ate::run_two_stage_flow(a, a, a, limits, ate::TwoStageCosts{},
                                       -1.0),
               std::invalid_argument);
}

}  // namespace
