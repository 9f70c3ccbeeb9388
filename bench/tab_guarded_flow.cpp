// Guarded-flow table: test-escape and yield-loss rates with and without the
// test cell's guard, under each measurement-chain fault class
// (rf/faults.hpp).
//
// The headline robustness number of the repo. Both flows run the one test
// engine (TestCell::test_device) on the same calibration: the unguarded
// flow under GuardPolicy::unguarded() regresses corrupted captures into
// confidently wrong spec predictions and ships bad parts; the guarded flow
// validates every capture, retries suspects with escalating averaging, and
// routes persistent outliers to conventional test. For every fault class
// the guarded escape rate must be strictly below the unguarded one, and on
// a clean chain the guard must be invisible: bit-identical predictions,
// zero retries.
//
// Exit status is non-zero if any of those checks fails, so the CI fault-
// injection stress job can gate on this binary.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "ate/flow.hpp"
#include "circuit/lna900.hpp"
#include "common.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kLotRngSeed = 9001;

struct Scenario {
  std::string name;
  rf::FaultInjector faults;
  /// Golden-device drift check cadence (0 = off). Enabled for the slow
  /// drift class, which is invisible to the per-device screen by design.
  int monitor_every = 0;
};

struct GuardedLotResult {
  std::vector<sigtest::TestDisposition> dispositions;
  int retries = 0;
  int escalations = 0;
  int routed = 0;
};

// Runs one guarded lot. When monitor_every > 0, a golden (nominal) device
// is measured through the same chain every monitor_every devices and fed to
// the EWMA drift monitor; once the recalibration flag latches, the rest of
// the lot is routed to conventional test -- slow chain drift keeps every
// individual signature inside the calibration envelope (the per-device
// screen cannot see it by construction), so the golden-device check is the
// guard layer that catches it. The monitor draws from a derived rng stream,
// leaving the per-device capture draws untouched.
GuardedLotResult run_guarded_lot(sigtest::TestCell cell,
                                 const std::vector<rf::DeviceRecord>& lot,
                                 const rf::RfDut* golden, int monitor_every,
                                 const rf::FaultInjector* faults,
                                 std::uint64_t seed) {
  GuardedLotResult r;
  stats::Rng rng(seed);
  stats::Rng golden_rng = rng.derive(0x601d);
  for (std::size_t i = 0; i < lot.size(); ++i) {
    if (golden && monitor_every > 0 && i % monitor_every == 0 &&
        !cell.recalibration_needed())
      cell.monitor_golden(*golden, golden_rng, faults, i);
    if (cell.recalibration_needed()) {
      // Drift alarm: predictions suspect. A default disposition is routed.
      ++r.routed;
      r.dispositions.emplace_back();
      continue;
    }
    auto d = cell.test_device(*lot[i].dut, rng, faults, i);
    r.retries += d.attempts - 1;
    if (d.attempts > 1) r.escalations += d.attempts - 1;
    if (!d.has_prediction()) ++r.routed;
    r.dispositions.push_back(std::move(d));
  }
  return r;
}

}  // namespace

int main() {
  std::printf("=== Guarded production flow under measurement-chain faults"
              " ===\n");

  const auto study = bench::run_simulation_study();
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto cal = rf::make_lna_population(100, 0.2, 42);
  const auto lot = rf::make_lna_population(200, 0.2, 77);
  // Gain is the binding spec and its window is two-sided, so corruption
  // that biases predictions in either direction flips out-of-window parts
  // into the window (an escape). The 0.25 dB guard band exceeds the clean
  // predictor's worst lot error (0.20 dB), so with no faults the escape
  // count is exactly zero: every escape in the table is fault-induced.
  const std::vector<ate::SpecLimit> limits = {
      {"gain_db", 14.2, 15.6},
      {"nf_db", -kInf, 3.2},
      {"iip3_dbm", -14.3, kInf},
  };
  const double kGuardBand = 0.25;

  // Threshold sits above the clean lot's worst score (~1.9 over 200
  // devices) yet below what the fault classes produce, so the clean path
  // stays retry-free while corrupted captures are caught.
  sigtest::GuardPolicy policy;
  policy.outlier_threshold = 2.5;
  // Clean golden-device EWMA tops out near 0.75; slow gain drift pushes it
  // past 1.0 while the drift-induced bias is still inside the range where
  // escapes happen, so the monitor fires early enough to matter.
  policy.drift_alarm_score = 1.0;
  sigtest::TestCell cell(cfg, study.stimulus, circuit::LnaSpecs::names(),
                         policy);
  {
    stats::Rng rng(7);
    cell.calibrate(cal, rng);
  }
  // The unguarded flow's cell takes the guarded cell's calibration: it
  // predicts with the same regression model the guard screens for, so any
  // clean-path divergence is the guard's fault (and a bug).
  sigtest::TestCell unguarded(cfg, study.stimulus, circuit::LnaSpecs::names(),
                              sigtest::GuardPolicy::unguarded());
  unguarded.swap_calibration(cell.model(), cell.screen());

  std::vector<std::vector<double>> truth;
  truth.reserve(lot.size());
  for (const auto& dev : lot) truth.push_back(dev.specs.to_vector());

  // Fault classes: each magnitude chosen to corrupt captures noticeably but
  // not so grossly that even the unguarded flow fails every part (an escape
  // requires a corrupted prediction that still *passes* the limits).
  std::vector<Scenario> scenarios;
  scenarios.push_back({"none", rf::FaultInjector{}});
  scenarios.push_back(
      {"lo-drift", rf::FaultInjector{{rf::FaultSpec::lo_drift(100e3, 1.2)}}});
  scenarios.push_back({"clip", rf::FaultInjector{{rf::FaultSpec::clip(0.10)}}});
  scenarios.push_back(
      {"stuck", rf::FaultInjector{{rf::FaultSpec::stuck_sample(0.10)}}});
  scenarios.push_back(
      {"dropped", rf::FaultInjector{{rf::FaultSpec::dropped_sample(0.03)}}});
  scenarios.push_back({"contact", rf::FaultInjector{{rf::FaultSpec::
                                      contact_noise(0.02, 0.05)}}});
  scenarios.push_back({"wander", rf::FaultInjector{{rf::FaultSpec::
                                     baseline_wander(0.05, 300e3)}}});
  scenarios.push_back({"gain-drift",
                       rf::FaultInjector{{rf::FaultSpec::gain_drift(1e-3)}},
                       /*monitor_every=*/5});
  scenarios.push_back({"composed",
                       rf::FaultInjector{{rf::FaultSpec::clip(0.12),
                                          rf::FaultSpec::contact_noise(0.01,
                                                                       0.05),
                                          rf::FaultSpec::gain_drift(1e-2)}}});

  bool all_ok = true;
  std::printf("\n%-11s | %8s %8s | %8s %8s | %7s %7s %6s | %s\n", "fault",
              "esc-off", "esc-on", "yld-off", "yld-on", "retries", "routed",
              "retest", "check");
  const auto golden = rf::extract_lna_dut(circuit::Lna900::nominal());

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& sc = scenarios[s];
    const bool clean = sc.faults.empty();
    const rf::FaultInjector* faults = clean ? nullptr : &sc.faults;

    // (a) Unguarded: every corrupted capture is regressed and trusted.
    std::vector<sigtest::TestDisposition> off;
    {
      stats::Rng rng(kLotRngSeed);
      for (std::size_t i = 0; i < lot.size(); ++i)
        off.push_back(unguarded.test_device(*lot[i].dut, rng, faults, i));
    }
    const auto flow_off =
        ate::run_production_flow(truth, off, limits, kGuardBand);

    // (b) Guarded: validate, retry, escalate, route, monitor.
    const auto on = run_guarded_lot(cell, lot, golden.dut.get(),
                                    sc.monitor_every, faults, kLotRngSeed);
    const auto flow_on =
        ate::run_production_flow(truth, on.dispositions, limits, kGuardBand);

    bool ok = true;
    const char* check = "ok";
    if (clean) {
      // The guard must be invisible on a healthy chain.
      if (on.retries != 0 || on.routed != 0) {
        ok = false;
        check = "FAIL: guard not invisible on clean chain";
      } else {
        for (std::size_t i = 0; i < lot.size(); ++i)
          if (on.dispositions[i].predicted != off[i].predicted) {
            ok = false;
            check = "FAIL: clean path not bit-identical";
            break;
          }
        if (ok) check = "ok (bit-identical, 0 retries)";
      }
    } else {
      // The headline claim: guarding strictly cuts the escape rate.
      if (flow_off.test_escape == 0) {
        ok = false;
        check = "FAIL: fault class produced no unguarded escapes";
      } else if (!(flow_on.escape_rate() < flow_off.escape_rate())) {
        ok = false;
        check = "FAIL: guard did not cut the escape rate";
      }
    }
    all_ok = all_ok && ok;
    std::printf("%-11s | %8.4f %8.4f | %8.4f %8.4f | %7d %7d %6d | %s\n",
                sc.name.c_str(), flow_off.escape_rate(), flow_on.escape_rate(),
                flow_off.yield_loss_rate(), flow_on.yield_loss_rate(),
                on.retries, on.routed, flow_on.retested, check);
  }

  // Determinism: the composed and monitored scenarios must replay
  // bit-identically from the seed.
  {
    bool ok = true;
    for (const char* name : {"composed", "gain-drift"}) {
      for (const auto& sc : scenarios) {
        if (sc.name != name) continue;
        const auto a = run_guarded_lot(cell, lot, golden.dut.get(),
                                       sc.monitor_every, &sc.faults,
                                       kLotRngSeed);
        const auto b = run_guarded_lot(cell, lot, golden.dut.get(),
                                       sc.monitor_every, &sc.faults,
                                       kLotRngSeed);
        ok = ok && a.dispositions == b.dispositions;
      }
    }
    all_ok = all_ok && ok;
    std::printf("\n# replay determinism (composed + monitored, same seed):"
                " %s\n",
                ok ? "bit-identical" : "FAIL: diverged");
  }

  // Drift monitor: a golden device is checked between lots while the board
  // gain slowly drifts; the EWMA must raise the recalibration flag, and a
  // healthy chain must never alarm.
  {
    auto monitor = cell;  // private copy: keeps the table runs stateless
    const rf::FaultInjector drift{{rf::FaultSpec::gain_drift(4e-3)}};
    stats::Rng rng(13);
    int alarm_at = -1;
    for (int check = 0; check < 120; ++check) {
      const auto st = monitor.monitor_golden(
          *golden.dut, rng, &drift, static_cast<std::uint64_t>(check));
      if (st.alarm) {
        alarm_at = check;
        break;
      }
    }
    monitor.reset_drift_monitor();
    bool clean_alarm = false;
    for (int check = 0; check < 120; ++check)
      clean_alarm = clean_alarm ||
                    monitor.monitor_golden(*golden.dut, rng).alarm;
    const bool ok = alarm_at >= 0 && !clean_alarm;
    all_ok = all_ok && ok;
    std::printf("# drift monitor: alarm after %d golden checks under 0.4%%/"
                "device gain drift;\n#   healthy chain over 120 checks: %s\n",
                alarm_at, clean_alarm ? "FALSE ALARM (FAIL)" : "no alarm");
    if (alarm_at < 0) std::printf("#   FAIL: drift never raised the alarm\n");
  }

  std::printf("\n# overall: %s\n", all_ok ? "all checks passed"
                                          : "CHECKS FAILED");
  return all_ok ? 0 : 1;
}
