// perfbench: the repository benchmark. Runs one workload for a fixed time,
// checks every result against its reference, and prints a host-context
// block, a metric table and, as the last line, one JSON result object.
//
//   perfbench --workload lot_clean --seed 1 --seconds 15 --trace 0
//             [--rate LOTS_PER_S] [--scratch DIR] [--golden FILE]
//   perfbench --workload stimulus_search --write-golden --golden FILE
//
// Workloads: lot_clean, lot_faulted, service_mixed (needs --rate),
// stimulus_search (needs --golden). --trace 1 adds the per-layer metrics.
// Exit status: 0 when every result matched, 1 on a mismatch or error, 2 on
// bad usage. perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--rate R] [--scratch DIR] [--golden FILE] "
               "[--write-golden]\n");
  return 2;
}

void print_host_context(const perfbench::RunOptions& opt) {
  namespace simd = stf::core::simd;
  const char* threads_env = std::getenv("STF_THREADS");
  std::printf("# host: nproc=%u build_type=%s SIGTEST_CHECKED=%s "
              "SIGTEST_SIMD=%s simd_backend=%s simd_runtime=%s "
              "STF_THREADS=%s threads=%zu telemetry=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_CHECKED, PERFBENCH_SIMD, simd::backend_name(),
              simd::runtime_enabled() ? "on" : "off",
              threads_env != nullptr ? threads_env : "(unset)",
              stf::core::thread_count(),
              opt.trace ? "traced-phase" : "off");
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  if (opt.workload == "service_mixed")
    std::printf(" offered_rate=%g lots/s", opt.rate_per_s);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = next();
      else if (a == "--seed") opt.seed = std::stoull(next());
      else if (a == "--seconds") opt.seconds = std::stod(next());
      else if (a == "--trace") opt.trace = std::stoi(next()) != 0;
      else if (a == "--rate") opt.rate_per_s = std::stod(next());
      else if (a == "--scratch") opt.scratch_dir = next();
      else if (a == "--golden") opt.golden_path = next();
      else if (a == "--write-golden") opt.write_golden = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  if (opt.scratch_dir.empty()) opt.scratch_dir = "perfbench-scratch";
  if (!(opt.seconds > 0.0)) return usage();

  try {
    if (opt.write_golden) {
      perfbench::write_stimulus_golden(opt);
      std::printf("wrote %s\n", opt.golden_path.c_str());
      return 0;
    }
    print_host_context(opt);
    perfbench::RunResult result;
    if (opt.workload == "lot_clean")
      result = perfbench::run_lot_workload(opt, false);
    else if (opt.workload == "lot_faulted")
      result = perfbench::run_lot_workload(opt, true);
    else if (opt.workload == "service_mixed")
      result = perfbench::run_service_mixed(opt);
    else if (opt.workload == "stimulus_search")
      result = perfbench::run_stimulus_search(opt);
    else
      return usage();
    std::printf("%s", result.report.table().c_str());
    if (!result.correct)
      std::printf("# FAIL: a result differs from its reference\n");
    std::printf("%s\n", result.report
                            .json(result.correct, result.attempted,
                                  result.failed)
                            .c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
