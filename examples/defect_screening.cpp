// Production hardening: combining the spec predictor with the
// signature-space outlier guard.
//
// A regression-based alternate test is only trustworthy inside the
// population it was calibrated on. This example builds the standard
// runtime, fits the outlier screen on the calibration signatures, then
// shows both paths in action: healthy devices flow through prediction,
// while a defective part (collapsed current gain) is flagged for
// conventional retest instead of receiving an extrapolated -- and wrong --
// spec prediction.
#include <cstdio>
#include <vector>

#include "circuit/lna900.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;

  const auto config = sigtest::SignatureTestConfig::simulation_study();
  sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                   circuit::Lna900::nominal(), 0.05);
  sigtest::SignatureAcquirer acquirer(config, 16);
  sigtest::StimulusOptimizerConfig oc;
  oc.encoding.n_breakpoints = 16;
  oc.encoding.duration_s = config.capture_s;
  oc.encoding.v_min = -0.45;
  oc.encoding.v_max = 0.45;
  oc.ga.population = 20;
  oc.ga.generations = 8;
  const auto optimized = sigtest::optimize_stimulus(perturb, acquirer, oc);

  const auto devices = rf::make_lna_population(60, 0.2, 11);
  // The spec predictor alone: the unguarded preset, with the screen below
  // as the separate guard this example demonstrates.
  sigtest::TestCell runtime(config, optimized.waveform,
                            circuit::LnaSpecs::names(),
                            sigtest::GuardPolicy::unguarded());
  stats::Rng rng(5);
  runtime.calibrate(devices, rng);

  // Fit the guard on the same calibration lot's signatures.
  la::Matrix signatures(devices.size(), acquirer.signature_length());
  for (std::size_t i = 0; i < devices.size(); ++i)
    signatures.set_row(
        i, acquirer.acquire(*devices[i].dut, optimized.waveform, &rng));
  sigtest::OutlierScreen screen;
  screen.fit(signatures);
  const double threshold = 2.5;

  auto test_one = [&](const char* label, const rf::RfDut& dut,
                      const circuit::LnaSpecs& truth) {
    const auto sig = acquirer.acquire(dut, optimized.waveform, &rng);
    const double score = screen.score(sig);
    std::printf("%-22s score %.2f -> ", label, score);
    if (screen.is_outlier(sig, threshold)) {
      std::printf("FLAGGED: route to conventional test (true gain %.2f dB)\n",
                  truth.gain_db);
      return;
    }
    const auto pred = runtime.test_device(dut, rng).predicted;
    std::printf("predicted gain %.2f dB (true %.2f), NF %.2f (true %.2f)\n",
                pred[0], truth.gain_db, pred[1], truth.nf_db);
  };

  std::printf("production flow with outlier guard (threshold %.1f):\n\n",
              threshold);
  const auto healthy = rf::make_lna_population(3, 0.2, 99);
  for (std::size_t i = 0; i < healthy.size(); ++i)
    test_one(("healthy device " + std::to_string(i)).c_str(),
             *healthy[i].dut, healthy[i].specs);

  auto defect_process = circuit::Lna900::nominal();
  defect_process[6] *= 0.1;  // beta collapse: far outside any corner
  const auto defect = rf::extract_lna_dut(defect_process);
  test_one("DEFECT (beta/10)", *defect.dut, defect.specs);

  std::printf(
      "\nWithout the guard the defect would have received an extrapolated"
      " spec prediction;\nwith it, only in-population devices are judged by"
      " the regression.\n");
  return 0;
}
