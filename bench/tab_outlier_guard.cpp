// Extension experiment: signature-space outlier screening as a test-escape
// guard. Regression-based alternate test extrapolates; a catastrophically
// defective device can therefore receive a passing spec *prediction*. The
// screen routes signature-space outliers to conventional test. This bench
// injects parametric defects into a production lot and reports escapes
// with and without the guard.
#include <cstdio>
#include <limits>
#include <vector>

#include "ate/flow.hpp"
#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"

int main() {
  using namespace stf;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::printf("=== Outlier guard: defect escapes with and without the"
              " signature-space screen ===\n");

  const auto study = bench::run_simulation_study();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::SignatureAcquirer acq(cfg, 16);

  // Calibrate the unguarded runtime (predictions without the screen) and
  // fit the screen on the same training lot.
  const auto devices = rf::make_lna_population(125, 0.2, 42);
  const auto split = rf::split_population(devices, 100);
  sigtest::TestCell runtime(cfg, study.stimulus, circuit::LnaSpecs::names(),
                            sigtest::GuardPolicy::unguarded());
  stats::Rng rng(7);
  runtime.calibrate(split.calibration, rng);

  la::Matrix cal_sigs(split.calibration.size(), acq.signature_length());
  for (std::size_t i = 0; i < split.calibration.size(); ++i)
    cal_sigs.set_row(
        i, acq.acquire(*split.calibration[i].dut, study.stimulus, &rng));
  sigtest::OutlierScreen screen;
  screen.fit(cal_sigs);

  // Production lot: healthy validation devices + injected defects (each a
  // single parameter far outside the +/-20% process box).
  struct Defect {
    const char* what;
    std::size_t param;
    double factor;
  };
  const Defect defects[] = {
      {"BF/10 (beta collapse)", 6, 0.1},
      {"RB1*4 (starved bias)", 0, 4.0},
      {"CT*5 (detuned tank)", 3, 5.0},
      {"RB*10 (base resistance)", 8, 10.0},  // mainly degrades NF
  };
  const std::vector<ate::SpecLimit> limits = {
      {"gain_db", 13.0, kInf},
      {"nf_db", -kInf, 3.0},
      {"iip3_dbm", -14.0, kInf},
  };

  int defect_escape_raw = 0, defect_escape_guarded = 0, flagged = 0;
  std::printf("# %-26s %10s %10s %10s %10s\n", "defect", "true gain",
              "pred gain", "score", "flagged");
  for (const auto& d : defects) {
    auto process = circuit::Lna900::nominal();
    process[d.param] *= d.factor;
    const auto ch = rf::extract_lna_dut(process);
    const auto sig = acq.acquire(*ch.dut, study.stimulus, &rng);
    const auto pred = runtime.test_device(*ch.dut, rng).predicted;
    const double score = screen.score(sig);
    const bool out = screen.is_outlier(sig, 2.5);

    bool truly_good = true, predicted_good = true;
    const auto truth = ch.specs.to_vector();
    for (std::size_t s = 0; s < limits.size(); ++s) {
      truly_good = truly_good && limits[s].passes(truth[s]);
      predicted_good = predicted_good && limits[s].passes(pred[s]);
    }
    if (!truly_good && predicted_good) {
      ++defect_escape_raw;
      if (!out) ++defect_escape_guarded;
    }
    if (out) ++flagged;
    std::printf("  %-26s %10.2f %10.2f %10.2f %10s\n", d.what,
                ch.specs.gain_db, pred[0], score, out ? "YES" : "no");
  }

  // Healthy validation devices must pass the screen (false-alarm check).
  int false_alarms = 0;
  for (const auto& dev : split.validation)
    if (screen.is_outlier(acq.acquire(*dev.dut, study.stimulus, &rng), 2.5))
      ++false_alarms;

  std::printf("\n# defect escapes without guard: %d/4, with guard: %d/4\n",
              defect_escape_raw, defect_escape_guarded);
  std::printf("# healthy devices falsely flagged: %d/%zu\n", false_alarms,
              split.validation.size());
  std::printf(
      "# expected shape: every gross parametric defect lands far outside"
      " the calibration\n"
      "# cloud and is flagged, with zero false alarms on healthy devices --"
      " the guard makes\n"
      "# the regression's extrapolated (and visibly wrong) spec predictions"
      " irrelevant.\n");
  return 0;
}
