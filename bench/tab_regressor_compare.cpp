// Ablation: calibration regressor choice. The paper's references use
// MARS-class nonparametric regression; this compares the repo's default
// (normalized polynomial features + ridge) against a k-NN baseline on the
// identical simulation-study data.
#include <cstdio>
#include <vector>

#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/population.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/knn.hpp"
#include "stats/metrics.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;
  std::printf("=== Regressor comparison: polynomial ridge vs k-NN ===\n");

  const auto study = bench::run_simulation_study();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::SignatureAcquirer acq(cfg, 16);
  const auto devices = rf::make_lna_population(125, 0.2, 42);
  const auto split = rf::split_population(devices, 100);

  // Shared data: averaged calibration signatures + single-capture
  // validation signatures, exactly what both regressors consume.
  stats::Rng rng(7);
  const std::size_t m = acq.signature_length();
  la::Matrix cal_sig(split.calibration.size(), m);
  la::Matrix cal_specs(split.calibration.size(), 3);
  std::vector<double> noise_var(m, 0.0);
  const int n_avg = 8;
  for (std::size_t i = 0; i < split.calibration.size(); ++i) {
    sigtest::Signature mean(m, 0.0);
    std::vector<sigtest::Signature> caps;
    for (int a = 0; a < n_avg; ++a) {
      caps.push_back(
          acq.acquire(*split.calibration[i].dut, study.stimulus, &rng));
      for (std::size_t j = 0; j < m; ++j) mean[j] += caps.back()[j];
    }
    for (double& v : mean) v /= n_avg;
    for (const auto& c : caps)
      for (std::size_t j = 0; j < m; ++j) {
        const double d = c[j] - mean[j];
        noise_var[j] += d * d;
      }
    cal_sig.set_row(i, mean);
    cal_specs.set_row(i, split.calibration[i].specs.to_vector());
  }
  for (double& v : noise_var)
    v /= static_cast<double>(split.calibration.size() * (n_avg - 1));

  sigtest::CalibrationModel ridge;
  ridge.fit(cal_sig, cal_specs, noise_var);
  sigtest::KnnRegressor knn(5);
  knn.fit(cal_sig, cal_specs, noise_var);

  const char* spec_names[] = {"gain_db", "nf_db", "iip3_dbm"};
  std::vector<std::vector<double>> truth(3), pred_ridge(3), pred_knn(3);
  for (const auto& dev : split.validation) {
    const auto sig = acq.acquire(*dev.dut, study.stimulus, &rng);
    const auto a = ridge.predict(sig);
    const auto b = knn.predict(sig);
    const auto t = dev.specs.to_vector();
    for (std::size_t s = 0; s < 3; ++s) {
      truth[s].push_back(t[s]);
      pred_ridge[s].push_back(a[s]);
      pred_knn[s].push_back(b[s]);
    }
  }

  std::printf("# %-10s %18s %18s\n", "spec", "ridge std(err)",
              "k-NN std(err)");
  for (std::size_t s = 0; s < 3; ++s)
    std::printf("  %-10s %18.4f %18.4f\n", spec_names[s],
                stats::std_error(truth[s], pred_ridge[s]),
                stats::std_error(truth[s], pred_knn[s]));
  std::printf(
      "# expected shape: both regressors work; the parametric ridge model"
      " interpolates more\n"
      "# efficiently at this training size, while k-NN is assumption-free"
      " -- the method does\n"
      "# not hinge on one learner, as the paper's reliance on generic"
      " regression implies.\n");
  return 0;
}
