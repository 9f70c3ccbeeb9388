// Shared experiment runners for the reproduction benches.
//
// Each bench binary regenerates one figure/table of the paper; the two
// studies (Section 4.1 simulation, Section 4.2 hardware) are shared across
// several figures, so their full flows live here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dsp/pwl.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"

namespace stf::bench {

/// Parameters of the Section 4.1 simulation study.
struct SimStudyOptions {
  std::size_t n_train = 100;  ///< Paper: 100 training instances.
  std::size_t n_val = 25;     ///< Paper: 25 validation instances.
  double process_spread = 0.2;  ///< Paper: +/-20% uniform.
  std::size_t ga_population = 24;
  std::size_t ga_generations = 12;
  std::size_t pwl_breakpoints = 16;
  double stimulus_vmax = 0.45;
  std::uint64_t population_seed = 42;
  std::uint64_t ga_seed = 3;
  std::uint64_t noise_seed = 7;
  int calibration_averages = 8;
};

/// Everything the Figs. 7-10 benches need.
struct SimStudyResult {
  stf::dsp::PwlWaveform stimulus;
  std::vector<double> ga_history;
  double ga_objective = 0.0;
  stf::sigtest::ObjectiveBreakdown breakdown;
  stf::sigtest::ValidationReport report;
};

SimStudyResult run_simulation_study(const SimStudyOptions& opts = {});

/// Parameters of the Section 4.2 hardware (RF401) study.
struct HwStudyOptions {
  std::size_t n_devices = 55;  ///< Paper: 55 devices.
  std::size_t n_cal = 28;      ///< Paper: 28 calibration, 27 validation.
  double stimulus_vmax = 0.25;
  std::size_t pwl_breakpoints = 64;
  std::size_t signature_bins = 32;
  std::uint64_t population_seed = 17;
  std::uint64_t stimulus_seed = 5;
  std::uint64_t noise_seed = 23;
  int calibration_averages = 8;
};

struct HwStudyResult {
  stf::dsp::PwlWaveform stimulus;
  stf::sigtest::ValidationReport report;
};

HwStudyResult run_hardware_study(const HwStudyOptions& opts = {});

/// Print one spec's truth/predicted scatter in the paper's figure style.
void print_scatter(const stf::sigtest::SpecScatter& scatter,
                   const std::string& unit);

/// Print the summary error line the paper quotes under each figure.
void print_error_summary(const stf::sigtest::SpecScatter& scatter,
                         const std::string& unit);

}  // namespace stf::bench
