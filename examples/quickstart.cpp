// Quickstart: the complete signature-test flow in ~60 lines.
//
//  1. draw a small population of 900 MHz LNA instances (circuit engine),
//  2. optimize a PWL baseband stimulus for the signature path (GA, Eq. 10),
//  3. calibrate signature -> specification regressions on a training split,
//  4. production-test a fresh device from one 5 us acquisition.
#include <cstdio>

#include "circuit/lna900.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;

  // --- the signature path: 900 MHz carrier, 100 kHz LO offset, 10 MHz
  //     LPF, 20 MHz digitizer with 1 mV noise (paper Section 4.1). ---
  const auto config = sigtest::SignatureTestConfig::simulation_study();

  // --- optimize the test stimulus around the nominal process point. ---
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
  std::printf("optimized stimulus: Eq.10 objective %.4e after %zu GA"
              " evaluations\n",
              optimized.objective, optimized.evaluations);

  // --- Monte Carlo device population: 40 train + 10 test. ---
  const auto devices = rf::make_lna_population(50, 0.2, 1);
  const auto split = rf::split_population(devices, 40);

  // --- one-time calibration (the only step needing reference specs). The
  //     unguarded preset predicts every device as acquired, the paper's
  //     production step. ---
  sigtest::TestCell runtime(config, optimized.waveform,
                            circuit::LnaSpecs::names(),
                            sigtest::GuardPolicy::unguarded());
  stats::Rng tester_noise(7);
  runtime.calibrate(split.calibration, tester_noise);
  std::printf("calibrated on %zu devices\n", split.calibration.size());

  // --- production test: one acquisition per device, all specs at once. ---
  std::printf("\n%-8s %22s %22s %24s\n", "device", "gain dB (true/pred)",
              "NF dB (true/pred)", "IIP3 dBm (true/pred)");
  for (std::size_t i = 0; i < split.validation.size(); ++i) {
    const auto& dev = split.validation[i];
    const auto pred = runtime.test_device(*dev.dut, tester_noise).predicted;
    std::printf("%-8zu %10.2f / %8.2f %11.2f / %7.2f %13.2f / %7.2f\n", i,
                dev.specs.gain_db, pred[0], dev.specs.nf_db, pred[1],
                dev.specs.iip3_dbm, pred[2]);
  }
  return 0;
}
