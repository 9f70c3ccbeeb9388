#include "sigtest/diagnosis.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::sigtest {

ParametricDiagnoser::ParametricDiagnoser(const SignatureTestConfig& config,
                                         stf::dsp::PwlWaveform stimulus,
                                         std::vector<std::string> param_names,
                                         CalibrationOptions cal_options,
                                         std::size_t max_signature_bins)
    : acquirer_(config, max_signature_bins),
      stimulus_(std::move(stimulus)),
      param_names_(std::move(param_names)),
      model_(cal_options) {
  STF_REQUIRE(!param_names_.empty(), "ParametricDiagnoser: no parameter names");
}

void ParametricDiagnoser::calibrate(
    const std::vector<stf::rf::DeviceRecord>& training, stf::stats::Rng& rng,
    int n_avg) {
  STF_REQUIRE(training.size() >= 2, "ParametricDiagnoser: need >= 2 devices");
  const std::size_t k = param_names_.size();
  fit_from_captures(
      model_, training.size(),
      [&](std::size_t i) {
        return acquirer_.acquire(*training[i].dut, stimulus_, &rng);
      },
      [&](std::size_t i) {
        if (training[i].process.size() != k)
          throw std::runtime_error(
              "ParametricDiagnoser: process vector size mismatch");
        return training[i].process;
      },
      n_avg);
}

std::vector<double> ParametricDiagnoser::diagnose(
    const stf::rf::RfDut& dut, stf::stats::Rng& rng) const {
  STF_REQUIRE(model_.fitted(), "ParametricDiagnoser: not calibrated");
  return model_.predict(acquirer_.acquire(dut, stimulus_, &rng));
}

ValidationReport ParametricDiagnoser::validate(
    const std::vector<stf::rf::DeviceRecord>& devices,
    stf::stats::Rng& rng) const {
  STF_REQUIRE(!devices.empty(), "ParametricDiagnoser: no devices");
  std::vector<std::vector<double>> truth, predicted;
  for (const auto& dev : devices) {
    predicted.push_back(diagnose(*dev.dut, rng));
    truth.push_back(dev.process);
  }
  return make_validation_report(param_names_, truth, predicted);
}

}  // namespace stf::sigtest
