// Ablation E10: prediction accuracy vs calibration-set size and signature
// noise. The paper used 100 training devices in simulation, only 28 in the
// hardware study, and noted "results are likely to be significantly better
// with a larger set of calibrating devices" -- this sweep regenerates that
// trend, plus the noise dependence of Eq. 10.
#include <cstdio>
#include <vector>

#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;
  std::printf("=== Calibration-set size & noise sweep (simulation study)"
              " ===\n");

  // One shared optimized stimulus + one big population; re-split per row.
  const auto study = bench::run_simulation_study();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto devices = rf::make_lna_population(125, 0.2, 42);

  std::printf("# n_train   gain std(err) dB   nf std(err) dB   iip3 std(err)"
              " dBm\n");
  for (std::size_t n_train : {8u, 16u, 28u, 50u, 100u}) {
    const auto split = rf::split_population(devices, n_train);
    // Validate on the same final 25 devices for comparability.
    std::vector<rf::DeviceRecord> val(devices.end() - 25, devices.end());
    sigtest::TestCell rt(cfg, study.stimulus, circuit::LnaSpecs::names());
    stats::Rng rng(7);
    rt.calibrate(split.calibration, rng);
    const auto rep = rt.validate(val, rng);
    std::printf("%8zu %18.4f %16.4f %19.4f\n", n_train,
                rep.specs[0].std_error, rep.specs[1].std_error,
                rep.specs[2].std_error);
  }

  std::printf("\n# digitizer noise sweep (100 training devices)\n");
  std::printf("# noise rms (mV)   gain std(err) dB   iip3 std(err) dBm\n");
  for (double noise_mv : {0.0, 0.5, 1.0, 2.0, 5.0}) {
    auto c = cfg;
    c.digitizer.noise_rms_v = noise_mv * 1e-3;
    const auto split = rf::split_population(devices, 100);
    sigtest::TestCell rt(c, study.stimulus, circuit::LnaSpecs::names());
    stats::Rng rng(7);
    rt.calibrate(split.calibration, rng);
    const auto rep = rt.validate(split.validation, rng);
    std::printf("%15.1f %18.4f %19.4f\n", noise_mv, rep.specs[0].std_error,
                rep.specs[2].std_error);
  }
  std::printf("# expected shape: errors shrink with more calibration devices"
              " and grow with noise\n");
  return 0;
}
