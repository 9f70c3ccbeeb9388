// Ablation: temperature sensitivity of the calibrated signature test.
//
// Production floors are not at the characterization temperature. The
// calibration maps signature -> specs at T_cal; if the lot is tested at a
// different junction temperature both the signature AND the true specs
// move, and the regression silently applies the T_cal map. This bench
// calibrates at 290 K and validates at several temperatures, quantifying
// the drift -- the standard argument for temperature-controlled handlers
// or per-temperature calibrations in alternate test.
#include <cstdio>
#include <vector>

#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"

namespace {

using namespace stf;

// Characterize an LNA process point at a junction temperature.
rf::DeviceRecord device_at(const std::vector<double>& process,
                           double kelvin) {
  using namespace circuit;
  Netlist nl = Lna900::build(process);
  nl.set_temperature(kelvin);
  const DcSolution dc = solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  const RfPort port = Lna900::port();

  rf::DeviceRecord d;
  d.process = process;
  d.specs.gain_db = transducer_gain_db(ac, Lna900::kF0, port);
  d.specs.nf_db = noise_figure_db(ac, Lna900::kF0, port);
  d.specs.iip3_dbm = iip3_dbm(ac, Lna900::kF0, Lna900::kF2, port);
  const Phasor h = voltage_transfer(ac, Lna900::kF0, port);
  d.dut = std::make_shared<rf::BehavioralLna>(
      h, rf::iip3_dbm_to_source_amplitude(d.specs.iip3_dbm), d.specs.nf_db);
  return d;
}

}  // namespace

int main() {
  std::printf("=== Temperature ablation: calibrate at 290 K, validate"
              " elsewhere ===\n");
  const auto study = bench::run_simulation_study();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();

  // One fixed validation lot of process points.
  stats::UniformBox box{circuit::Lna900::nominal(), 0.2};
  stats::Rng draw(55);
  std::vector<std::vector<double>> lot;
  for (int i = 0; i < 25; ++i) lot.push_back(box.sample(draw));

  // Calibrate once at the reference temperature.
  const auto cal_devices = rf::make_lna_population(100, 0.2, 42);
  sigtest::TestCell runtime(cfg, study.stimulus, circuit::LnaSpecs::names());
  stats::Rng rng(7);
  runtime.calibrate(cal_devices, rng);

  std::printf("# T (K)   T (C)   gain std(err) dB   gain bias dB   iip3"
              " std(err) dBm\n");
  for (double kelvin : {250.0, 270.0, 290.0, 310.0, 340.0}) {
    std::vector<rf::DeviceRecord> devices;
    for (const auto& process : lot)
      devices.push_back(device_at(process, kelvin));
    const auto rep = runtime.validate(devices, rng);
    // Bias = mean signed error: temperature shifts the whole lot, which a
    // fixed calibration cannot follow.
    double bias = 0.0;
    for (std::size_t i = 0; i < rep.specs[0].truth.size(); ++i)
      bias += rep.specs[0].predicted[i] - rep.specs[0].truth[i];
    bias /= static_cast<double>(rep.specs[0].truth.size());
    std::printf("%7.0f %7.0f %18.4f %14.4f %19.4f\n", kelvin,
                kelvin - 273.15, rep.specs[0].std_error, bias,
                rep.specs[2].std_error);
  }
  std::printf(
      "# expected shape: minimal error at the 290 K calibration point,"
      " growing bias away from\n"
      "# it -- motivating temperature-controlled test or per-temperature"
      " calibration maps.\n");
  return 0;
}
