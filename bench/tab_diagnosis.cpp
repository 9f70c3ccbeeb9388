// Extension experiment: parametric fault diagnosis (the companion
// functional-mapping work the paper cites as ref [9]). The same signature
// that predicts datasheet specs is inverted to estimate the underlying
// process parameters -- the table reports per-parameter estimation
// accuracy, separating observable parameters (bias and gain determining)
// from the ones the signature cannot see.
#include <cmath>
#include <cstdio>
#include <vector>

#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/population.hpp"
#include "sigtest/diagnosis.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;
  std::printf("=== Parametric diagnosis: process parameters estimated from"
              " the signature ===\n");

  const auto study = bench::run_simulation_study();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto devices = rf::make_lna_population(125, 0.2, 21);
  std::vector<rf::DeviceRecord> train(devices.begin(), devices.begin() + 100);
  std::vector<rf::DeviceRecord> val(devices.begin() + 100, devices.end());

  std::vector<std::string> names(circuit::Lna900::param_names().begin(),
                                 circuit::Lna900::param_names().end());
  // Strong shrinkage: parameters the signature cannot identify should
  // collapse to the prior mean instead of stealing variance from the
  // confounded set.
  sigtest::CalibrationOptions co;
  co.poly_degree = 1;
  co.ridge_lambda = 3.0;
  sigtest::ParametricDiagnoser diag(cfg, study.stimulus, names, co);
  stats::Rng rng(13);
  diag.calibrate(train, rng);
  const auto report = diag.validate(val, rng);
  const auto nominal = circuit::Lna900::nominal();

  std::printf("# %-8s %14s %12s   (uniform +/-20%% prior: rms 11.5%%)\n",
              "param", "rms (% nom)", "R^2");
  for (std::size_t j = 0; j < report.specs.size(); ++j) {
    const sigtest::SpecScatter& p = report.specs[j];
    std::printf("  %-8s %13.2f%% %12.4f\n", p.name.c_str(),
                100.0 * p.rms_error / std::abs(nominal[j]), p.r_squared);
  }
  std::printf(
      "# expected shape: parameters with a distinct signature fingerprint"
      " (RB, CT, BF) recover\n"
      "# real signal; members of confounded sets (RB1/RC/BF all scale gain"
      " together) shrink to\n"
      "# the prior or misattribute -- the classic identifiability limit of"
      " parametric diagnosis.\n");
  return 0;
}
