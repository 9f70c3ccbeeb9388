// Fault-injection walkthrough: what a degraded measurement chain does to
// signature testing, and what the guarded runtime does about it.
//
// A small LNA lot is tested three ways, each through TestCell::test_device
// on the same calibration:
//   (a) clean chain, GuardPolicy::unguarded() -- the baseline,
//   (b) faulted chain, unguarded              -- corrupted captures are
//       regressed into confidently wrong spec predictions,
//   (c) faulted chain, guarded policy         -- captures are validated,
//       suspects retried with escalating averaging, persistent outliers
//       routed to conventional test.
// Then the golden-device drift monitor is demonstrated on a slowly
// drifting board gain.
//
// The fault scenario is parsed from the CLI (default: a railing digitizer
// plus intermittent socket contact), so any combination from rf/faults.hpp
// can be explored:
//   fault_injection [--fault SPEC] [--seed N]
//   fault_injection --fault "clip:0.1,contact:0.02:0.05,gain:2e-3"
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/lna900.hpp"
#include "core/env.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "stats/rng.hpp"

namespace {

int usage() {
  std::fprintf(stderr, "usage: fault_injection [--fault SPEC] [--seed N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stf;

  std::string fault_spec = "clip:0.12,contact:0.02:0.05";
  std::string seed_text;
  std::uint64_t seed = 1234;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--fault=", 0) == 0)
      fault_spec = a.substr(std::strlen("--fault="));
    else if (a == "--fault" && i + 1 < argc)
      fault_spec = argv[++i];
    else if (a.rfind("--seed=", 0) == 0)
      seed_text = a.substr(std::strlen("--seed="));
    else if (a == "--seed" && i + 1 < argc)
      seed_text = argv[++i];
    else
      return usage();
  }

  rf::FaultInjector faults;
  try {
    faults = rf::FaultInjector::parse(fault_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fault_injection: bad --fault spec: %s\n", e.what());
    return 2;
  }
  if (!seed_text.empty()) {
    try {
      seed = core::env::parse_u64("--seed", seed_text, 0,
                                  std::numeric_limits<std::uint64_t>::max());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "fault_injection: %s\n", e.what());
      return usage();
    }
  }
  std::printf("=== Fault scenario: %s (seed %llu) ===\n",
              faults.describe().c_str(),
              static_cast<unsigned long long>(seed));

  // Build the signature tester: optimized stimulus + calibrated runtime.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                   circuit::Lna900::nominal(), 0.05);
  sigtest::SignatureAcquirer acquirer(config, 16);
  sigtest::StimulusOptimizerConfig oc;
  oc.encoding.n_breakpoints = 16;
  oc.encoding.duration_s = config.capture_s;
  oc.encoding.v_min = -0.45;
  oc.encoding.v_max = 0.45;
  oc.ga.population = 20;
  oc.ga.generations = 10;
  const auto optimized = sigtest::optimize_stimulus(perturb, acquirer, oc);

  const auto cal_devices = rf::make_lna_population(100, 0.2, 11);
  sigtest::GuardPolicy policy;
  policy.outlier_threshold = 2.5;
  sigtest::TestCell cell(config, optimized.waveform,
                         circuit::LnaSpecs::names(), policy);
  {
    stats::Rng rng(5);
    cell.calibrate(cal_devices, rng);
  }
  // The baseline runs under the unguarded preset on the same calibration.
  sigtest::TestCell baseline(config, optimized.waveform,
                             circuit::LnaSpecs::names(),
                             sigtest::GuardPolicy::unguarded());
  baseline.swap_calibration(cell.model(), cell.screen());

  // A small lot, tested three ways with identical noise seeds. Even the
  // unguarded preset routes a capture with a non-finite sample; its gain
  // column then reads nan.
  const auto lot = rf::make_lna_population(12, 0.2, 99);
  const auto gain_of = [](const sigtest::TestDisposition& d) {
    return d.has_prediction() ? d.predicted[0]
                              : std::numeric_limits<double>::quiet_NaN();
  };
  std::printf("\n%-3s %8s | %8s | %8s %7s | %-22s\n", "dev", "true",
              "clean", "faulted", "", "guarded");
  std::printf("%-3s %8s | %8s | %8s %7s | %-22s\n", "", "gain", "pred",
              "pred", "err", "disposition");
  int routed = 0, retried = 0;
  for (std::size_t i = 0; i < lot.size(); ++i) {
    stats::Rng r_clean(seed), r_fault(seed), r_guard(seed);
    const double clean = gain_of(baseline.test_device(*lot[i].dut, r_clean));
    const double bad =
        gain_of(baseline.test_device(*lot[i].dut, r_fault, &faults, i));
    const auto d = cell.test_device(*lot[i].dut, r_guard, &faults, i);

    const char* kind = "routed to conventional";
    if (d.kind == sigtest::DispositionKind::kPredicted) kind = "predicted";
    if (d.kind == sigtest::DispositionKind::kPredictedAfterRetry) {
      kind = "predicted after retry";
      ++retried;
    }
    if (d.kind == sigtest::DispositionKind::kRoutedToConventional) ++routed;
    std::printf("%-3zu %8.2f | %8.2f | %8.2f %7.2f | %-22s (%d attempts,"
                " %d captures)\n",
                i, lot[i].specs.gain_db, clean, bad,
                bad - lot[i].specs.gain_db, kind, d.attempts, d.captures);
  }
  std::printf("\n# unguarded: every faulted prediction above would be"
              " trusted as-is.\n");
  std::printf("# guarded:   %d retried, %d routed -- no corrupted prediction"
              " reaches the flow.\n",
              retried, routed);

  // Golden-device drift monitor: the board gain drifts 0.4%% per check; the
  // EWMA of the golden device's outlier score latches the recalibration
  // flag long before predictions silently degrade.
  const auto golden = rf::extract_lna_dut(circuit::Lna900::nominal());
  const rf::FaultInjector drift{{rf::FaultSpec::gain_drift(4e-3)}};
  stats::Rng rng(seed);
  std::printf("\n=== Golden-device drift monitor (gain drifting 0.4%% per"
              " check) ===\n");
  for (int check = 0; check < 200; ++check) {
    const auto st = cell.monitor_golden(*golden.dut, rng, &drift,
                                        static_cast<std::uint64_t>(check));
    if (check % 10 == 0 || st.alarm)
      std::printf("check %3d: score %6.3f ewma %6.3f%s\n", check, st.score,
                  st.ewma, st.alarm ? "  << RECALIBRATE" : "");
    if (st.alarm) break;
  }
  std::printf("recalibration needed: %s\n",
              cell.recalibration_needed() ? "yes" : "no");
  return 0;
}
