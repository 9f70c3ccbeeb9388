// Production-flow scenario: the economics and risk trade the paper's
// Section 1 motivates. A lot of 200 LNAs is screened against datasheet
// limits two ways:
//   (a) conventional per-spec testing on a high-end RF ATE (exact specs,
//       slow and expensive),
//   (b) signature testing on a low-cost tester (predicted specs, 5 us
//       acquisition) with a guard band against prediction error.
// Prints the confusion matrix (test escapes / yield loss), throughput and
// cost per part for each flow, then re-runs the lot through the guarded
// lot engine (sigtest::TestCell::test_lot) and verifies its dispositions
// match the serial guarded reference device for device.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ate/cost.hpp"
#include "ate/flow.hpp"
#include "ate/timing.hpp"
#include "circuit/lna900.hpp"
#include "core/env.hpp"
#include "core/telemetry.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "stats/rng.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: production_flow [--trace-out FILE] [--stats]"
               " [--batch N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stf;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Optional observability flags (same spelling as sigtest_cli): turn the
  // telemetry layer on and dump a Chrome trace / summary table of the full
  // optimize-calibrate-screen flow. CI uploads the trace as an artifact.
  std::string trace_path;
  bool stats = false;
  std::string batch_text;
  std::size_t batch_size = 16;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--stats") stats = true;
    else if (a.rfind("--trace-out=", 0) == 0)
      trace_path = a.substr(std::strlen("--trace-out="));
    else if (a == "--trace-out" && i + 1 < argc)
      trace_path = argv[++i];
    else if (a.rfind("--batch=", 0) == 0)
      batch_text = a.substr(std::strlen("--batch="));
    else if (a == "--batch" && i + 1 < argc)
      batch_text = argv[++i];
    else
      return usage();
  }
  if (!batch_text.empty()) {
    try {
      batch_size = core::env::parse_u64(
          "--batch", batch_text, 1, std::numeric_limits<std::size_t>::max());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "production_flow: %s\n", e.what());
      return usage();
    }
  }
  if (stats || !trace_path.empty()) core::telemetry::set_enabled(true);

  // Datasheet limits sized so the +/-20% process lot has imperfect yield.
  const std::vector<ate::SpecLimit> limits = {
      {"gain_db", 14.2, kInf},    // minimum gain
      {"nf_db", -kInf, 2.6},      // maximum noise figure
      {"iip3_dbm", -12.0, kInf},  // minimum linearity
  };

  // --- build the signature tester (stimulus + calibration). ---
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
  sigtest::TestCell runtime(config, optimized.waveform,
                            circuit::LnaSpecs::names(),
                            sigtest::GuardPolicy::unguarded());
  stats::Rng noise(5);
  runtime.calibrate(cal_devices, noise);

  // --- the production lot: every device predicted, on one noise stream. ---
  const auto lot = rf::make_lna_population(200, 0.2, 77);
  std::vector<std::vector<double>> truth;
  std::vector<sigtest::TestDisposition> tested;
  for (const auto& dev : lot) {
    truth.push_back(dev.specs.to_vector());
    tested.push_back(runtime.test_device(*dev.dut, noise));
  }

  std::printf("=== Lot of %zu devices, 3 datasheet limits ===\n", lot.size());
  std::printf("%-12s %10s %10s %10s %10s %12s %12s\n", "guard band", "pass",
              "fail", "escapes", "yld loss", "escape rate", "yldloss rate");
  for (double guard : {0.0, 0.1, 0.2, 0.4}) {
    const auto r = ate::run_production_flow(truth, tested, limits, guard);
    std::printf("%-12.2f %10d %10d %10d %10d %12.4f %12.4f\n", guard,
                r.true_pass, r.true_fail, r.test_escape, r.yield_loss,
                r.escape_rate(), r.yield_loss_rate());
  }

  // --- economics. ---
  const auto conv = ate::ConventionalTestPlan::typical_rf_frontend();
  const auto sig = ate::SignatureTestPlan::paper_hardware_study();
  const auto rf_ate = ate::TesterCostModel::high_end_rf_ate();
  const auto low_cost = ate::TesterCostModel::low_cost_tester();
  std::printf("\n=== Economics per part ===\n");
  std::printf("conventional: %6.3f s, %8.0f parts/hour, $%.4f\n",
              conv.total_time_s(), ate::parts_per_hour(conv.total_time_s()),
              rf_ate.cost_per_part(conv.total_time_s()));
  std::printf("signature:    %6.3f s, %8.0f parts/hour, $%.4f\n",
              sig.total_time_s(), ate::parts_per_hour(sig.total_time_s()),
              low_cost.cost_per_part(sig.total_time_s()));

  // --- batched guarded throughput. ---
  // The same lot, now with capture validation and the batched test-cell
  // pipeline. The batched dispositions must match a serial guarded pass
  // device for device (each device owns the child stream derive(i)); the
  // speedup is reported so the example doubles as a smoke benchmark.
  {
    sigtest::GuardPolicy policy;
    policy.outlier_threshold = 2.5;
    sigtest::BatchOptions bopts;
    bopts.batch_size = batch_size;
    sigtest::TestCell batched(config, optimized.waveform,
                              circuit::LnaSpecs::names(), policy, bopts);
    stats::Rng cal_rng(11);
    batched.calibrate(cal_devices, cal_rng);
    const stats::Rng lot_rng(9001);

    const auto t0 = std::chrono::steady_clock::now();
    const sigtest::LotResult batch_result = batched.test_lot(lot, lot_rng);
    const double batch_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const auto t1 = std::chrono::steady_clock::now();
    const std::vector<sigtest::TestDisposition> serial =
        sigtest::serial_reference(batched, lot, lot_rng);
    const double serial_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
            .count();

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < lot.size(); ++i)
      if (batch_result.dispositions[i] != serial[i]) ++mismatches;

    std::printf("\n=== Batched guarded pipeline (batch %zu) ===\n", batch_size);
    std::printf("serial:  %7.3f s, %8.0f devices/sec\n", serial_s,
                serial_s > 0 ? static_cast<double>(lot.size()) / serial_s : 0);
    std::printf("batched: %7.3f s, %8.0f devices/sec (%.2fx)\n", batch_s,
                batch_s > 0 ? static_cast<double>(lot.size()) / batch_s : 0,
                batch_s > 0 ? serial_s / batch_s : 0);
    std::printf("dispositions: %zu predicted, %zu retried, %zu routed, "
                "%zu mismatches vs serial\n",
                batch_result.predicted, batch_result.retried,
                batch_result.routed, mismatches);
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "production_flow: batched dispositions diverged from the "
                   "serial guarded reference\n");
      return 1;
    }
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "production_flow: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    out << core::telemetry::chrome_trace();
    std::fprintf(stderr, "production_flow: trace written to %s\n",
                 trace_path.c_str());
  }
  if (stats) std::fputs(core::telemetry::summary().c_str(), stderr);
  return 0;
}
