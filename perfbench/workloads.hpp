// The benchmark's four workloads. Each builds its inputs from the seed,
// measures for the requested time, checks every result against a reference,
// and fills a Report: end-to-end metrics always, per-layer metrics when the
// run is traced.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Offered load of service_mixed, lots/s (fixed per benchmark version).
  double rate_per_s = 0.0;
  /// Scratch directory for calibration stores (created and removed).
  std::string scratch_dir;
  /// Golden stimulus-search results (see golden_ga.txt).
  std::string golden_path;
  /// stimulus_search: recompute the golden file instead of measuring.
  bool write_golden = false;
};

struct RunResult {
  Report report;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunResult run_lot_workload(const RunOptions& options, bool faulted);
RunResult run_service_mixed(const RunOptions& options);
RunResult run_stimulus_search(const RunOptions& options);

/// Recompute the stimulus_search golden file at options.golden_path.
void write_stimulus_golden(const RunOptions& options);

}  // namespace perfbench
