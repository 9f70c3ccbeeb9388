// Per-layer probes of the traced run: each times calls into one public
// function of a layer (rf, dsp, sigtest, net, store, linalg) over the
// workload's own devices, from outside the library, and records the median
// cost per call.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "rf/dut.hpp"
#include "rf/faults.hpp"
#include "sigtest/batch.hpp"
#include "sigtest/sensitivity.hpp"

namespace perfbench {

/// What the probes run on.
struct ProbeInputs {
  /// A calibrated runtime built with the workload's recipe. Mutable only
  /// because the swap probe re-publishes its current calibration.
  stf::sigtest::BatchRuntime* runtime = nullptr;
  /// The workload's devices (the probes cycle over them).
  std::vector<const stf::rf::RfDut*> devices;
  /// The workload's tester faults; null on a clean workload.
  const stf::rf::FaultInjector* faults = nullptr;
  /// The perturbation set of the stimulus search, or null to build one.
  const stf::sigtest::PerturbationSet* perturbations = nullptr;
  /// Directory for a scratch calibration store (created and removed).
  std::string scratch_dir;
};

/// Run every layer probe and add its metric to `report`.
void add_layer_probes(const ProbeInputs& in, Report& report);

}  // namespace perfbench
