// Tests for model serialization and the k-NN regressor.
#include <cmath>

#include <gtest/gtest.h>

#include "sigtest/calibration.hpp"
#include "sigtest/knn.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;

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
  EXPECT_CONTRACT_THROW(fresh.serialize(), std::logic_error);
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
  EXPECT_CONTRACT_THROW(sigtest::KnnRegressor(0), std::invalid_argument);
  sigtest::KnnRegressor knn(5);
  EXPECT_CONTRACT_THROW(knn.predict({1.0}), std::logic_error);
  la::Matrix sig(3, 2), specs(3, 1);  // rows < k
  EXPECT_CONTRACT_THROW(knn.fit(sig, specs), std::invalid_argument);
  la::Matrix ok(8, 2), bad_specs(7, 1);
  EXPECT_CONTRACT_THROW(knn.fit(ok, bad_specs), std::invalid_argument);
  la::Matrix good_specs(8, 1);
  knn.fit(ok, good_specs);
  EXPECT_CONTRACT_THROW(knn.predict({1.0, 2.0, 3.0}), std::invalid_argument);
}

}  // namespace
