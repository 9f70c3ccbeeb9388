#include "common.hpp"

#include <cstdio>

#include "circuit/lna900.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"

namespace stf::bench {

SimStudyResult run_simulation_study(const SimStudyOptions& opts) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();

  // Stimulus optimization around the nominal process point (Section 3.1).
  sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                   circuit::Lna900::nominal(), 0.05);
  sigtest::SignatureAcquirer acquirer(cfg, 16);
  sigtest::StimulusOptimizerConfig oc;
  oc.encoding.n_breakpoints = opts.pwl_breakpoints;
  oc.encoding.duration_s = cfg.capture_s;
  oc.encoding.v_min = -opts.stimulus_vmax;
  oc.encoding.v_max = opts.stimulus_vmax;
  oc.ga.population = opts.ga_population;
  oc.ga.generations = opts.ga_generations;
  oc.ga.seed = opts.ga_seed;
  const auto opt = sigtest::optimize_stimulus(perturb, acquirer, oc);

  // Monte Carlo population, split per the paper (Section 4.1).
  const auto devices = rf::make_lna_population(
      opts.n_train + opts.n_val, opts.process_spread, opts.population_seed);
  const auto split = rf::split_population(devices, opts.n_train);

  // Calibrate and validate through the FASTest-style test cell (Fig. 5).
  sigtest::TestCell runtime(cfg, opt.waveform, circuit::LnaSpecs::names());
  stats::Rng noise(opts.noise_seed);
  runtime.calibrate(split.calibration, noise, opts.calibration_averages);

  SimStudyResult result;
  result.stimulus = opt.waveform;
  result.ga_history = opt.history;
  result.ga_objective = opt.objective;
  result.breakdown = opt.breakdown;
  result.report = runtime.validate(split.validation, noise);
  return result;
}

HwStudyResult run_hardware_study(const HwStudyOptions& opts) {
  const auto cfg = sigtest::SignatureTestConfig::hardware_study();

  // The paper had no RF401 netlist and optimized the stimulus on a
  // behavioral model; here a rich pseudo-random multi-level PWL plays that
  // role. Fast modulation is essential so compression sidebands land in
  // signature bins distinct from the main beat.
  stats::Rng srng(opts.stimulus_seed);
  std::vector<double> breakpoints(opts.pwl_breakpoints);
  for (auto& v : breakpoints)
    v = srng.uniform(-opts.stimulus_vmax, opts.stimulus_vmax);
  const auto stimulus =
      stf::dsp::PwlWaveform::uniform(cfg.capture_s, breakpoints);

  rf::Rf401Options popt;
  popt.n = opts.n_devices;
  const auto devices = rf::make_rf401_population(popt, opts.population_seed);
  const auto split = rf::split_population(devices, opts.n_cal);

  sigtest::CalibrationOptions co;
  co.ridge_lambda = 1e-1;  // 28 calibration devices: regularize harder
  sigtest::TestCell runtime(cfg, stimulus, circuit::LnaSpecs::names(), {}, {},
                            co, opts.signature_bins);
  stats::Rng noise(opts.noise_seed);
  runtime.calibrate(split.calibration, noise, opts.calibration_averages);

  HwStudyResult result;
  result.stimulus = stimulus;
  result.report = runtime.validate(split.validation, noise);
  return result;
}

void print_scatter(const stf::sigtest::SpecScatter& scatter,
                   const std::string& unit) {
  std::printf("# %-28s %-18s\n",
              ("direct/measured (" + unit + ")").c_str(),
              ("predicted (" + unit + ")").c_str());
  for (std::size_t i = 0; i < scatter.truth.size(); ++i)
    std::printf("%14.4f %20.4f\n", scatter.truth[i], scatter.predicted[i]);
}

void print_error_summary(const stf::sigtest::SpecScatter& scatter,
                         const std::string& unit) {
  std::printf(
      "# %s: std(err) = %.4f %s, RMS = %.4f %s, max|err| = %.4f %s, "
      "R^2 = %.4f (n = %zu)\n",
      scatter.name.c_str(), scatter.std_error, unit.c_str(),
      scatter.rms_error, unit.c_str(), scatter.max_abs_error, unit.c_str(),
      scatter.r_squared, scatter.truth.size());
}

}  // namespace stf::bench
