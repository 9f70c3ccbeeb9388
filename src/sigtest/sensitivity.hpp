// Sensitivity estimation: the A_p and A_s matrices of Section 3.1.
//
// Both matrices are central finite differences around the nominal process
// point, taken with respect to *relative* parameter perturbations (per unit
// fraction of nominal) so columns are comparably scaled. Characterizing a
// device instance (circuit solves) is far more expensive than acquiring a
// signature from its behavioral model, and A_p does not depend on the
// stimulus at all -- so the perturbed characterizations are computed once
// into a PerturbationSet, and only signature_sensitivity() reruns per GA
// candidate stimulus.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsp/pwl.hpp"
#include "linalg/matrix.hpp"
#include "rf/dut.hpp"
#include "sigtest/acquisition.hpp"

namespace stf::sigtest {

/// Characterizes one process point: returns the spec vector ("performances"
/// p) and the behavioral DUT used by the signature path.
///
/// Thread-safety: PerturbationSet construction and signature_sensitivity()
/// fan their per-parameter work out over stf::core::parallel_for, so the
/// factory is invoked concurrently and the DUTs it returns are processed
/// concurrently (read-only). Both must be thread-safe; pure functions of
/// the process vector (like lna900_factory) qualify.
struct DeviceCharacterization {
  std::vector<double> specs;
  std::shared_ptr<stf::rf::RfDut> dut;
};
using DeviceFactory =
    std::function<DeviceCharacterization(const std::vector<double>&)>;

/// Nominal + per-parameter plus/minus characterizations.
class PerturbationSet {
 public:
  /// Characterize x0 and x0 with each parameter perturbed by
  /// +/- rel_step * |x0_j|.
  PerturbationSet(const DeviceFactory& factory, std::vector<double> x0,
                  double rel_step = 0.05);

  /// A_p: (n_specs x k) sensitivity of specs to relative parameter changes.
  stf::la::Matrix spec_sensitivity() const;

  /// A_s: (m x k) sensitivity of the (noiseless) signature to relative
  /// parameter changes, for the given stimulus.
  stf::la::Matrix signature_sensitivity(
      const SignatureAcquirer& acquirer,
      const stf::dsp::PwlWaveform& stimulus) const;

  /// The same into `a_s`, reshaped to m x k only when its shape differs,
  /// so a caller that reuses one matrix per candidate stimulus (the GA's
  /// batch objective) allocates it once. Scratch comes from the calling
  /// thread's capture arena.
  void signature_sensitivity(const SignatureAcquirer& acquirer,
                             const stf::dsp::PwlWaveform& stimulus,
                             stf::la::Matrix& a_s) const;

  std::size_t n_params() const { return x0_.size(); }
  std::size_t n_specs() const { return nominal_.specs.size(); }
  const std::vector<double>& x0() const { return x0_; }
  const DeviceCharacterization& nominal() const { return nominal_; }

 private:
  struct Pair {
    DeviceCharacterization plus;
    DeviceCharacterization minus;
  };
  std::vector<double> x0_;
  double rel_step_;
  DeviceCharacterization nominal_;
  std::vector<Pair> pairs_;
};

/// DeviceFactory for the 900 MHz LNA (circuit-engine characterization).
DeviceFactory lna900_factory();

}  // namespace stf::sigtest
