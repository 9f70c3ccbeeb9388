// Lineage experiment: baseband-analog signature testing (paper Section 2,
// citing VTS'98/VTS'00 -- "analog performance can be predicted by using
// the transient response of the DUT as a signature"). A Sallen-Key filter
// population is specification-tested from nothing but its sampled
// transient response to a PWL stimulus, exactly the pre-RF form of the
// technique this paper lifts to 900 MHz.
#include <cstdio>
#include <vector>

#include "sigtest/analog.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;
  std::printf("=== Baseband lineage: transient-signature test of a"
              " Sallen-Key filter ===\n");

  const auto pop = sigtest::make_filter_population(80, 0.2, 3);
  std::vector<sigtest::AnalogDeviceRecord> train(pop.begin(),
                                                 pop.begin() + 60);
  std::vector<sigtest::AnalogDeviceRecord> val(pop.begin() + 60, pop.end());

  sigtest::AnalogSignatureConfig cfg;
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s,
      {0.0, 0.8, -0.6, 0.4, -0.9, 0.7, -0.2, 0.9, -0.7, 0.3, -0.4, 0.6, 0.0});

  sigtest::AnalogSignatureRuntime runtime(cfg, stim);
  stats::Rng rng(7);
  runtime.calibrate(train, rng);
  const auto rep = runtime.validate(val, rng);

  std::printf("# %zu training / %zu validation filters, 2 ms transient"
              " capture, 1 mV digitizer noise\n",
              train.size(), val.size());
  std::printf("# %-12s %12s %10s\n", "spec", "rms_err", "R^2");
  const char* units[] = {"dB", "Hz", "dB"};
  for (std::size_t s = 0; s < rep.specs.size(); ++s)
    std::printf("  %-12s %9.4f %-3s %8.4f\n", rep.specs[s].name.c_str(),
                rep.specs[s].rms_error, units[s], rep.specs[s].r_squared);

  std::printf("\n# cutoff-frequency scatter (the headline spec)\n");
  std::printf("# %-14s %14s\n", "true f3db (Hz)", "predicted (Hz)");
  const sigtest::SpecScatter& f3db = rep.specs[1];
  for (std::size_t i = 0; i < f3db.truth.size(); ++i)
    std::printf("%12.1f %16.1f\n", f3db.truth[i], f3db.predicted[i]);
  return 0;
}
