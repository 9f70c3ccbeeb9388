// Baseband-analog signature testing: the technique's original form.
//
// Before the RF extension that is this paper's contribution, signature
// testing predicted low-frequency analog specifications directly from the
// *transient response* to an optimized stimulus (paper Section 2, citing
// VTS'98/VTS'00). This module closes that loop with the in-repo transient
// engine: the stimulus drives the DUT netlist through a nonlinear
// time-domain simulation, the sampled response is the signature (no
// mixers, no FFT), and the same CalibrationModel maps it to specs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/sallen_key.hpp"
#include "dsp/pwl.hpp"
#include "sigtest/calibration.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// Acquisition settings for the baseband transient signature.
struct AnalogSignatureConfig {
  double capture_s = 2e-3;      ///< Stimulus/capture window.
  double sim_dt = 2e-6;         ///< Transient integration step.
  double fs_capture_hz = 32e3;  ///< Digitizer rate (signature length).
  double noise_rms_v = 1e-3;    ///< Digitizer noise.
  std::string source = "VS";    ///< Stimulus voltage source name.
  std::string out_node = "out";
};

/// Run the transient, sample the output node at the digitizer rate, add
/// measurement noise. The time-domain samples ARE the signature here.
Signature acquire_analog_signature(const stf::circuit::Netlist& netlist,
                                   const stf::dsp::PwlWaveform& stimulus,
                                   const AnalogSignatureConfig& config,
                                   stf::stats::Rng* rng);

/// One filter instance of the analog study.
struct AnalogDeviceRecord {
  std::vector<double> process;
  stf::circuit::FilterSpecs specs;
};

/// Monte Carlo population of Sallen-Key filters (+/- spread uniform).
std::vector<AnalogDeviceRecord> make_filter_population(std::size_t n,
                                                       double spread,
                                                       std::uint64_t seed);

/// Calibrate-then-validate runtime for the analog flow.
class AnalogSignatureRuntime {
 public:
  AnalogSignatureRuntime(AnalogSignatureConfig config,
                         stf::dsp::PwlWaveform stimulus,
                         CalibrationOptions cal_options = {});

  void calibrate(const std::vector<AnalogDeviceRecord>& training,
                 stf::stats::Rng& rng, int n_avg = 4);

  std::vector<double> test_device(const std::vector<double>& process,
                                  stf::stats::Rng& rng) const;

  /// test_device() on every validation device, in order on one shared
  /// stream, compared against their reference specs.
  ValidationReport validate(const std::vector<AnalogDeviceRecord>& devices,
                            stf::stats::Rng& rng) const;

  bool calibrated() const { return model_.fitted(); }

 private:
  AnalogSignatureConfig config_;
  stf::dsp::PwlWaveform stimulus_;
  CalibrationModel model_;
};

}  // namespace stf::sigtest
