#include "sigtest/analog.hpp"

#include <stdexcept>

#include "circuit/transient.hpp"
#include "core/contracts.hpp"
#include "dsp/resample.hpp"
#include "stats/sampling.hpp"

namespace stf::sigtest {

Signature acquire_analog_signature(const stf::circuit::Netlist& netlist,
                                   const stf::dsp::PwlWaveform& stimulus,
                                   const AnalogSignatureConfig& config,
                                   stf::stats::Rng* rng) {
  STF_REQUIRE(!(config.sim_dt <= 0.0 || config.capture_s <= config.sim_dt),
              "acquire_analog_signature: bad time grid");
  STF_REQUIRE(config.fs_capture_hz > 0.0,
              "acquire_analog_signature: bad capture rate");

  stf::circuit::TransientOptions topts;
  topts.t_stop = config.capture_s;
  topts.dt = config.sim_dt;
  stf::circuit::SourceWaveforms waveforms;
  waveforms[config.source] = [&stimulus](double t) {
    return stimulus.sample(t);
  };
  const auto result =
      stf::circuit::simulate_transient(netlist, topts, waveforms);

  const auto response = result.voltage(netlist.find_node(config.out_node));
  Signature samples = stf::dsp::resample_linear(
      response, 1.0 / config.sim_dt, config.fs_capture_hz);
  if (rng != nullptr && config.noise_rms_v > 0.0)
    rng->add_normal(samples, config.noise_rms_v);
  return samples;
}

std::vector<AnalogDeviceRecord> make_filter_population(std::size_t n,
                                                       double spread,
                                                       std::uint64_t seed) {
  STF_REQUIRE(n != 0, "make_filter_population: n == 0");
  stf::stats::UniformBox box{stf::circuit::SallenKeyFilter::nominal(),
                             spread};
  stf::stats::Rng rng(seed);
  std::vector<AnalogDeviceRecord> devices;
  devices.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AnalogDeviceRecord d;
    d.process = box.sample(rng);
    d.specs = stf::circuit::SallenKeyFilter::measure(d.process);
    devices.push_back(std::move(d));
  }
  return devices;
}

AnalogSignatureRuntime::AnalogSignatureRuntime(AnalogSignatureConfig config,
                                               stf::dsp::PwlWaveform stimulus,
                                               CalibrationOptions cal_options)
    : config_(std::move(config)),
      stimulus_(std::move(stimulus)),
      model_(cal_options) {}

void AnalogSignatureRuntime::calibrate(
    const std::vector<AnalogDeviceRecord>& training, stf::stats::Rng& rng,
    int n_avg) {
  STF_REQUIRE(!training.empty(),
              "AnalogSignatureRuntime::calibrate: no training devices");
  STF_REQUIRE(n_avg >= 1,
              "AnalogSignatureRuntime::calibrate: n_avg must be >= 1");
  fit_from_captures(
      model_, training.size(),
      [&](std::size_t i) {
        const auto nl =
            stf::circuit::SallenKeyFilter::build(training[i].process);
        return acquire_analog_signature(nl, stimulus_, config_, &rng);
      },
      [&](std::size_t i) { return training[i].specs.to_vector(); }, n_avg);
}

std::vector<double> AnalogSignatureRuntime::test_device(
    const std::vector<double>& process, stf::stats::Rng& rng) const {
  STF_REQUIRE(model_.fitted(), "AnalogSignatureRuntime: not calibrated");
  const auto nl = stf::circuit::SallenKeyFilter::build(process);
  return model_.predict(
      acquire_analog_signature(nl, stimulus_, config_, &rng));
}

ValidationReport AnalogSignatureRuntime::validate(
    const std::vector<AnalogDeviceRecord>& devices,
    stf::stats::Rng& rng) const {
  STF_REQUIRE(!devices.empty(), "AnalogSignatureRuntime: no devices");
  std::vector<std::vector<double>> truth, predicted;
  for (const auto& dev : devices) {
    predicted.push_back(test_device(dev.process, rng));
    truth.push_back(dev.specs.to_vector());
  }
  return make_validation_report(stf::circuit::FilterSpecs::names(), truth,
                                predicted);
}

}  // namespace stf::sigtest
