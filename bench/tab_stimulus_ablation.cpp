// Ablation E11: the value of Section 3.1's stimulus optimization. Compares
// the GA-optimized PWL against naive stimuli (random PWL, single tone,
// flat DC) on both the Eq. 10 objective and the realized validation error.
#include <cmath>
#include <cstdio>

#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

struct Row {
  const char* name;
  dsp::PwlWaveform stimulus;
};

void evaluate(const Row& row, const sigtest::PerturbationSet& perturb,
              const sigtest::SignatureAcquirer& acq,
              const sigtest::SignatureTestConfig& cfg,
              const std::vector<rf::DeviceRecord>& devices) {
  const auto breakdown = sigtest::evaluate_stimulus(perturb, acq,
                                                    row.stimulus);
  const auto split = rf::split_population(devices, 100);
  sigtest::TestCell rt(cfg, row.stimulus, circuit::LnaSpecs::names());
  stats::Rng rng(7);
  rt.calibrate(split.calibration, rng);
  const auto rep = rt.validate(split.validation, rng);
  std::printf("  %-14s %13.4e %16.4f %16.4f %18.4f\n", row.name, breakdown.f,
              rep.specs[0].std_error, rep.specs[1].std_error,
              rep.specs[2].std_error);
}

}  // namespace

int main() {
  std::printf("=== Stimulus ablation: optimized vs naive stimuli ===\n");
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                   circuit::Lna900::nominal(), 0.05);
  sigtest::SignatureAcquirer acq(cfg, 16);
  const auto devices = rf::make_lna_population(125, 0.2, 42);

  const auto study = bench::run_simulation_study();

  stats::Rng srng(99);
  std::vector<double> random_bp(16);
  for (auto& v : random_bp) v = srng.uniform(-0.3, 0.3);

  std::vector<double> tone_bp(16);
  for (std::size_t i = 0; i < 16; ++i)
    tone_bp[i] = 0.3 * std::sin(2.0 * M_PI * 2.0 * static_cast<double>(i) /
                                15.0);

  const Row rows[] = {
      {"optimized", study.stimulus},
      {"random PWL", dsp::PwlWaveform::uniform(cfg.capture_s, random_bp)},
      {"single tone", dsp::PwlWaveform::uniform(cfg.capture_s, tone_bp)},
      {"flat DC", dsp::PwlWaveform::uniform(cfg.capture_s,
                                            std::vector<double>(16, 0.25))},
  };

  std::printf("# %-14s %13s %16s %16s %18s\n", "stimulus", "Eq.10 F",
              "gain std(dB)", "nf std(dB)", "iip3 std(dBm)");
  for (const auto& row : rows) evaluate(row, perturb, acq, cfg, devices);
  std::printf(
      "# expected shape: the optimized stimulus wins the Eq. 10 objective by"
      " orders of magnitude;\n"
      "# realized errors show any spectrally rich stimulus performing close"
      " to the optimum while\n"
      "# degenerate stimuli (flat DC) are several times worse -- Eq. 10"
      " chiefly guards against\n"
      "# uninformative stimuli rather than fine-tuning among rich ones.\n");
  return 0;
}
