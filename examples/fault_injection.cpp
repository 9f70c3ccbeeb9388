// Fault-injection walkthrough: what a degraded measurement chain does to
// signature testing, and what the guarded runtime does about it.
//
// A small LNA lot is tested three ways:
//   (a) clean chain, unguarded predict_device -- the baseline,
//   (b) faulted chain, unguarded              -- corrupted captures are
//       regressed into confidently wrong spec predictions,
//   (c) faulted chain, guarded test_device    -- captures are validated,
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
#include <string>
#include <vector>

#include "circuit/lna900.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "stats/rng.hpp"

int main(int argc, char** argv) {
  using namespace stf;

  std::string fault_spec = "clip:0.12,contact:0.02:0.05";
  std::uint64_t seed = 1234;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--fault=", 0) == 0)
      fault_spec = a.substr(std::strlen("--fault="));
    else if (a == "--fault" && i + 1 < argc)
      fault_spec = argv[++i];
    else if (a.rfind("--seed=", 0) == 0)
      seed = std::stoull(a.substr(std::strlen("--seed=")));
    else if (a == "--seed" && i + 1 < argc)
      seed = std::stoull(argv[++i]);
    else {
      std::fprintf(stderr, "usage: fault_injection [--fault SPEC] [--seed N]\n");
      return 2;
    }
  }

  rf::FaultInjector faults;
  try {
    faults = rf::FaultInjector::parse(fault_spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fault_injection: bad --fault spec: %s\n", e.what());
    return 2;
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

  // A small lot, tested three ways with identical noise seeds.
  const auto lot = rf::make_lna_population(12, 0.2, 99);
  std::printf("\n%-3s %8s | %8s | %8s %7s | %-22s\n", "dev", "true",
              "clean", "faulted", "", "guarded");
  std::printf("%-3s %8s | %8s | %8s %7s | %-22s\n", "", "gain", "pred",
              "pred", "err", "disposition");
  int routed = 0, retried = 0;
  for (std::size_t i = 0; i < lot.size(); ++i) {
    stats::Rng r_clean(seed), r_fault(seed), r_guard(seed);
    const auto clean = cell.predict_device(*lot[i].dut, r_clean);
    const auto bad = cell.predict_device(*lot[i].dut, r_fault, &faults, i);
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
                i, lot[i].specs.gain_db, clean[0], bad[0],
                bad[0] - lot[i].specs.gain_db, kind, d.attempts, d.captures);
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
