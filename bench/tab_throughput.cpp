// Throughput table: the device-parallel lot engine vs the serial guarded
// flow.
//
// The paper's pitch is test-time economics, and a production test cell does
// not test one part at a time: sigtest::TestCell::test_lot tests the lot's
// devices side by side on the worker pool, each device running the full
// guarded test. This bench measures devices/sec both ways, on a clean chain
// and under a composed fault scenario, and -- the part CI gates on --
// verifies the lot dispositions are bit-identical to the serial guarded
// reference (same derived per-device rng streams) before reporting any
// speedup. A fast engine that changes a single disposition is a broken
// engine.
//
// Exit status is non-zero on any disposition divergence. With --out FILE a
// google-benchmark-compatible JSON is written, with a host-context block
// (nproc, build type, SIGTEST_CHECKED, SIMD backend, STF_THREADS), so
// tools/bench_report.py can track the serial/batched ratio across runs (on
// 1-core CI the ratio is ~1x -- parity, not regression; multicore runners
// see the speedup).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/lna900.hpp"
#include "common.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

constexpr std::uint64_t kLotRngSeed = 9001;
constexpr int kReps = 3;  // best-of-N wall-clock per mode

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ModeTiming {
  double serial_s = 0.0;
  double batched_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) out_path = a.substr(std::strlen("--out="));
    else if (a == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: tab_throughput [--out FILE]\n");
      return 2;
    }
  }

  std::printf("=== Batched test-cell throughput (lot of 240, %zu threads)"
              " ===\n",
              core::thread_count());

  // Fixed multi-tone-ish PWL stimulus: the GA search is irrelevant to the
  // pipeline under test, and skipping it keeps the bench fast.
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s,
      {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.15, -0.1, 0.0});
  sigtest::GuardPolicy policy;
  policy.outlier_threshold = 2.5;
  sigtest::TestCell runtime(cfg, stim, circuit::LnaSpecs::names(), policy);
  {
    const auto cal = rf::make_lna_population(100, 0.2, 42);
    stats::Rng cal_rng(7);
    runtime.calibrate(cal, cal_rng);
  }
  const auto lot = rf::make_lna_population(240, 0.2, 77);
  const rf::FaultInjector faulted{{rf::FaultSpec::clip(0.12),
                                   rf::FaultSpec::contact_noise(0.02, 0.05)}};

  struct Scenario {
    const char* name;
    const char* serial_bench;
    const char* batched_bench;
    const rf::FaultInjector* faults;
  };
  const Scenario scenarios[] = {
      {"clean", "LotSerialGuarded", "LotBatched", nullptr},
      {"faulted", "LotSerialGuardedFaulted", "LotBatchedFaulted", &faulted},
  };

  bool all_ok = true;
  std::vector<std::pair<std::string, double>> bench_times;  // name -> seconds
  std::printf("\n%-8s | %12s %12s | %8s | %s\n", "lot", "serial dev/s",
              "batched dev/s", "ratio", "dispositions");
  for (const Scenario& sc : scenarios) {
    ModeTiming t;
    std::vector<sigtest::TestDisposition> serial;
    sigtest::LotResult batched;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      // The serial reference test_lot is specified against: each device
      // owns the derived child stream and its sequence.
      serial = sigtest::serial_reference(runtime, lot,
                                         stats::Rng(kLotRngSeed), sc.faults);
      const double s = seconds_since(t0);
      if (rep == 0 || s < t.serial_s) t.serial_s = s;

      const auto t1 = std::chrono::steady_clock::now();
      batched = runtime.test_lot(lot, stats::Rng(kLotRngSeed), sc.faults);
      const double b = seconds_since(t1);
      if (rep == 0 || b < t.batched_s) t.batched_s = b;
    }

    const bool ok = serial == batched.dispositions;
    all_ok = all_ok && ok;
    const double n = static_cast<double>(lot.size());
    std::printf("%-8s | %12.0f %12.0f | %7.2fx | %zu predicted, %zu retried,"
                " %zu routed -- %s\n",
                sc.name, n / t.serial_s, n / t.batched_s,
                t.serial_s / t.batched_s, batched.predicted, batched.retried,
                batched.routed,
                ok ? "bit-identical" : "DIVERGED (FAIL)");
    bench_times.emplace_back(sc.serial_bench, t.serial_s);
    bench_times.emplace_back(sc.batched_bench, t.batched_s);
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "tab_throughput: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    const char* threads_env = std::getenv("STF_THREADS");
    out << "{\n  \"context\": {\"threads\": " << core::thread_count()
        << ", \"lot_devices\": " << lot.size()
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"build_type\": \"" << STF_BENCH_BUILD_TYPE
        << "\", \"sigtest_checked\": \"" << STF_BENCH_CHECKED
        << "\", \"simd_backend\": \"" << core::simd::backend_name()
        << "\", \"simd_runtime\": \""
        << (core::simd::runtime_enabled() ? "on" : "off")
        << "\", \"stf_threads\": \""
        << (threads_env != nullptr ? threads_env : "(unset)")
        << "\"},\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < bench_times.size(); ++i) {
      const double ns = bench_times[i].second * 1e9;
      const double dps =
          static_cast<double>(lot.size()) / bench_times[i].second;
      out << "    {\"name\": \"" << bench_times[i].first
          << "\", \"run_type\": \"iteration\", \"iterations\": 1, "
          << "\"real_time\": " << ns << ", \"cpu_time\": " << ns
          << ", \"time_unit\": \"ns\", \"devices_per_second\": " << dps
          << "}" << (i + 1 < bench_times.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "tab_throughput: wrote %s\n", out_path.c_str());
  }

  std::printf("\n# overall: %s\n",
              all_ok ? "batched == serial (bit-identical)"
                     : "DISPOSITION DIVERGENCE");
  return all_ok ? 0 : 1;
}
