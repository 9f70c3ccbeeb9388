// Online recalibration, end to end: the drift loop CLOSED, under live
// traffic, in one process.
//
//   1. A RuntimeRegistry materializes the scenario's calibrated runtime
//      and persists version 1 to a versioned CalibrationStore.
//   2. Production lots stream on a tester thread while a maintenance
//      thread feeds golden-device checks through a drifting measurement
//      chain (gain_drift). The EWMA monitor latches exactly one alarm;
//      the Recalibrator refits from its rolling golden window, the
//      rollback guard accepts the candidate, and the new model hot-swaps
//      in -- version 2, persisted, drift monitor reset -- while the lot
//      pipeline never stops.
//   3. Every lot that ran meanwhile is diffed bit-for-bit against the
//      serial reference of the calibration version it PINNED at entry:
//      in-flight lots finish on their starting version, never a mix.
//   4. A poisoned refit window (plausible signatures, corrupted spec
//      labels) is then pushed and recalibration forced: the rollback
//      guard must reject the candidate, count one rollback, and leave
//      version 2 serving.
//
// Exits 1 unless the run shows exactly one alarm -> one refit -> one
// hot-swap with zero rollbacks in the drift phase, one rollback with no
// swap in the poison phase, and zero disposition mismatches -- so the
// same binary is the CI `recal-smoke` gate. store.* / recal.* counters
// land in the --trace-out artifact.
//
//     ./build/examples/online_recalibration [--store-dir DIR]
//                                           [--trace-out FILE] [--stats]
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "service/registry.hpp"
#include "service/scenario.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"
#include "store/calibration_store.hpp"
#include "store/recalibrate.hpp"

namespace {

int g_violations = 0;

void check(bool ok, const char* what) {
  if (ok) {
    std::printf("  [ok] %s\n", what);
  } else {
    std::fprintf(stderr, "  [VIOLATION] %s\n", what);
    ++g_violations;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stf;

  std::string store_dir;
  std::string trace_path;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--stats") stats = true;
    else if (a.rfind("--store-dir=", 0) == 0)
      store_dir = a.substr(std::strlen("--store-dir="));
    else if (a == "--store-dir" && i + 1 < argc)
      store_dir = argv[++i];
    else if (a.rfind("--trace-out=", 0) == 0)
      trace_path = a.substr(std::strlen("--trace-out="));
    else if (a == "--trace-out" && i + 1 < argc)
      trace_path = argv[++i];
    else {
      std::fprintf(stderr,
                   "usage: online_recalibration [--store-dir DIR]"
                   " [--trace-out FILE] [--stats]\n");
      return 2;
    }
  }
  if (stats || !trace_path.empty()) core::telemetry::set_enabled(true);
  const bool ephemeral_store = store_dir.empty();
  if (ephemeral_store)
    store_dir = (std::filesystem::temp_directory_path() /
                 "stf_online_recalibration_store")
                    .string();
  std::filesystem::remove_all(store_dir);

  // --- 1. Registry + store: fit version 1 and persist it. -----------------
  auto cal_store = std::make_shared<stf::store::CalibrationStore>(store_dir);
  auto options = service::RegistryOptions::lna_defaults();
  options.calibration_devices = 16;
  options.batch = sigtest::BatchOptions{4};
  service::RuntimeRegistry registry(options, cal_store);
  const auto spec = service::parse_scenario("lna:spread=0.2:pop=77");
  const auto key = registry.store_key(spec);
  const auto runtime = registry.get(spec);
  std::printf("=== Calibration store: %s ===\n", store_dir.c_str());
  std::printf("scenario %s -> version %llu persisted\n",
              key.scenario.c_str(),
              static_cast<unsigned long long>(cal_store->latest_version(key)));
  check(cal_store->latest_version(key) == 1, "scratch fit persisted as v1");

  // The lot the tester thread streams, and per-version serial references.
  const auto lot = rf::make_lna_population(10, spec.spread, spec.pop_seed);
  constexpr std::uint64_t kLotSeed = 9001;
  const auto reference_v1 =
      sigtest::serial_reference(*runtime, lot, stats::Rng(kLotSeed));

  // --- 2. Live traffic races the drift loop. ------------------------------
  stf::store::RecalPolicy policy;
  policy.window_capacity = 48;
  policy.min_refit_rows = 16;
  stf::store::Recalibrator recal(runtime, cal_store, key, policy);
  const auto goldens = rf::make_lna_population(4, 0.05, 99);
  const rf::FaultInjector drift{{rf::FaultSpec::gain_drift(4e-3)}};

  std::atomic<bool> done{false};
  std::vector<sigtest::LotResult> lots;
  std::thread tester([&] {
    while (!done.load()) {
      lots.push_back(runtime->test_lot(lot, stats::Rng(kLotSeed)));
    }
  });

  std::printf("\n=== Drift phase: gain drifting 0.4%% per golden check ===\n");
  stats::Rng golden_rng(13);
  int alarms = 0;
  std::uint64_t first_alarm_at = 0;
  bool swapped = false;
  std::uint64_t sequence = 0;
  for (; sequence < 600 && !swapped; ++sequence) {
    const auto& golden = goldens[sequence % goldens.size()];
    const auto status = recal.observe_golden(
        *golden.dut, golden.specs.to_vector(), golden_rng, &drift, sequence);
    if (status.alarm && alarms == 0) {
      first_alarm_at = sequence;
      ++alarms;
      std::printf("check %3llu: ewma %.3f  << ALARM latched\n",
                  static_cast<unsigned long long>(sequence), status.ewma);
    }
    const auto report = recal.maybe_recalibrate();
    if (report.attempted) {
      std::printf("refit: window %zu rows, candidate err %.4f vs current"
                  " %.4f -> %s (version %llu)\n",
                  report.window_rows, report.candidate_error,
                  report.current_error,
                  report.swapped ? "HOT-SWAP" : "ROLLBACK",
                  static_cast<unsigned long long>(report.version));
      swapped = report.swapped;
    }
  }
  done.store(true);
  tester.join();

  check(alarms == 1, "exactly one drift alarm latched");
  check(recal.refits() == 1, "exactly one refit attempted");
  check(recal.swaps() == 1, "exactly one hot-swap published");
  check(recal.rollbacks() == 0, "zero rollbacks in the drift phase");
  check(runtime->calibration().version == 2,
        "runtime serves version 2 after the swap");
  check(!runtime->recalibration_needed(),
        "drift monitor reset by the swap");
  check(cal_store->latest_version(key) == 2, "version 2 persisted");
  std::printf("(alarm at golden check %llu; %zu lots streamed during the"
              " drift phase)\n",
              static_cast<unsigned long long>(first_alarm_at), lots.size());

  // --- 3. Every in-flight lot pinned exactly one version. -----------------
  const auto reference_v2 =
      sigtest::serial_reference(*runtime, lot, stats::Rng(kLotSeed));
  std::size_t on_v1 = 0, on_v2 = 0, mismatches = 0;
  for (const auto& result : lots) {
    const std::vector<sigtest::TestDisposition>* want = nullptr;
    if (result.model_version == 1) {
      want = &reference_v1;
      ++on_v1;
    } else if (result.model_version == 2) {
      want = &reference_v2;
      ++on_v2;
    } else {
      ++mismatches;
      continue;
    }
    for (std::size_t i = 0; i < lot.size(); ++i)
      if ((*want)[i] != result.dispositions[i]) ++mismatches;
  }
  std::printf("\n=== In-flight bit-identity: %zu lots on v1, %zu on v2,"
              " %zu mismatches ===\n",
              on_v1, on_v2, mismatches);
  check(mismatches == 0,
        "every lot matches its pinned version's serial reference bit-exactly");
  check(on_v1 >= 1, "lots ran on version 1 before the swap");

  // --- 4. A poisoned refit must roll back, not publish. -------------------
  std::printf("\n=== Poison phase: corrupted spec labels in the window ===\n");
  sigtest::Signature clean_sig;
  (void)runtime->monitor_golden(*goldens[0].dut, golden_rng, nullptr, 0,
                                &clean_sig);
  runtime->reset_drift_monitor();
  for (int i = 0; i < 14; ++i) {
    sigtest::Signature near_clean = clean_sig;
    for (std::size_t b = 0; b < near_clean.size(); ++b)
      near_clean[b] *= 1.0 + 0.01 * static_cast<double>((i + b) % 5);
    auto wrong_specs = goldens[i % goldens.size()].specs.to_vector();
    for (double& s : wrong_specs) s += 25.0;
    recal.push_window(near_clean, wrong_specs);
  }
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto& golden = goldens[s % goldens.size()];
    (void)recal.observe_golden(*golden.dut, golden.specs.to_vector(),
                               golden_rng, nullptr, s);
  }
  const auto poisoned = recal.recalibrate_now();
  std::printf("refit: candidate err %.4f vs current %.4f -> %s\n",
              poisoned.candidate_error, poisoned.current_error,
              poisoned.rolled_back ? "ROLLBACK" : "hot-swap");
  check(poisoned.attempted && poisoned.rolled_back && !poisoned.swapped,
        "poisoned candidate rejected by the rollback guard");
  check(recal.rollbacks() == 1, "exactly one rollback counted");
  check(runtime->calibration().version == 2,
        "version 2 still serving after the rollback");
  check(cal_store->latest_version(key) == 2,
        "no poisoned version was persisted");

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "online_recalibration: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    out << core::telemetry::chrome_trace();
    std::fprintf(stderr, "online_recalibration: trace written to %s\n",
                 trace_path.c_str());
  }
  if (stats) std::fputs(core::telemetry::summary().c_str(), stderr);
  if (ephemeral_store) std::filesystem::remove_all(store_dir);

  if (g_violations != 0) {
    std::fprintf(stderr, "online_recalibration: FAILED (%d violations)\n",
                 g_violations);
    return 1;
  }
  std::printf("\nonline_recalibration: OK -- drift alarmed, refit swapped"
              " under live lots, poison rolled back.\n");
  return 0;
}
