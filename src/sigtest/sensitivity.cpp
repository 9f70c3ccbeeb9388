#include "sigtest/sensitivity.hpp"

#include <stdexcept>

#include "circuit/lna900.hpp"
#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "rf/loadboard.hpp"

namespace stf::sigtest {

PerturbationSet::PerturbationSet(const DeviceFactory& factory,
                                 std::vector<double> x0, double rel_step)
    : x0_(std::move(x0)), rel_step_(rel_step) {
  STF_REQUIRE(factory, "PerturbationSet: null factory");
  STF_REQUIRE(!x0_.empty(), "PerturbationSet: empty x0");
  STF_REQUIRE(!(rel_step_ <= 0.0 || rel_step_ >= 1.0),
              "PerturbationSet: rel_step must be in (0,1)");

  nominal_ = factory(x0_);
  STF_REQUIRE(!(nominal_.specs.empty() || nominal_.dut == nullptr),
              "PerturbationSet: factory returned empty characterization");

  // Each perturbed characterization is a pair of full circuit solves --
  // the dominant setup cost -- and parameter j touches only pairs_[j], so
  // the 2k characterizations fan out over the thread pool.
  STF_TRACE_SPAN("sens.characterize");
  pairs_.resize(x0_.size());
  stf::core::parallel_for(
      0, x0_.size(),
      [this, &factory](std::size_t j) {
        std::vector<double> xp = x0_, xm = x0_;
        xp[j] = x0_[j] * (1.0 + rel_step_);
        xm[j] = x0_[j] * (1.0 - rel_step_);
        Pair pr;
        pr.plus = factory(xp);
        pr.minus = factory(xm);
        STF_REQUIRE(pr.plus.specs.size() == nominal_.specs.size() &&
                        pr.minus.specs.size() == nominal_.specs.size(),
                    "PerturbationSet: factory returned inconsistent spec "
                    "sizes");
        pairs_[j] = std::move(pr);
      },
      1);
}

stf::la::Matrix PerturbationSet::spec_sensitivity() const {
  STF_TRACE_SPAN("sens.spec_matrix");
  const std::size_t n = n_specs();
  const std::size_t k = n_params();
  stf::la::Matrix a_p(n, k);
  // d p_i / d (relative change of x_j): central difference over 2*rel_step.
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      a_p(i, j) = (pairs_[j].plus.specs[i] - pairs_[j].minus.specs[i]) /
                  (2.0 * rel_step_);
    }
  }
  STF_ENSURE(stf::contracts::finite(a_p.data(), a_p.size()),
             "spec_sensitivity: non-finite sensitivity entry");
  return a_p;
}

stf::la::Matrix PerturbationSet::signature_sensitivity(
    const SignatureAcquirer& acquirer,
    const stf::dsp::PwlWaveform& stimulus) const {
  stf::la::Matrix a_s;
  signature_sensitivity(acquirer, stimulus, a_s);
  return a_s;
}

void PerturbationSet::signature_sensitivity(
    const SignatureAcquirer& acquirer, const stf::dsp::PwlWaveform& stimulus,
    stf::la::Matrix& a_s) const {
  STF_TRACE_SPAN("sens.signature_matrix");
  const std::size_t k = n_params();
  const std::size_t m = acquirer.signature_length();
  const std::size_t n_cap = acquirer.capture_length();
  // 2k noiseless acquisitions per candidate stimulus, device 2j the plus
  // and device 2j + 1 the minus perturbation of parameter j. They share the
  // stimulus, so lane groups of them run through the board together, and
  // then through one lane FFT per group (signatures_into); the groups fan
  // out over the pool and run inline inside a parallel GA objective
  // evaluation. Every signature is bit-identical to acquire()'s.
  const std::size_t n_dev = 2 * k;
  const std::size_t width = stf::rf::LoadBoard::lane_width();
  stf::core::Arena& caller_arena = stf::core::capture_arena();
  const stf::core::ArenaScope caller_scope(caller_arena);
  stf::core::ArenaVector<double> signatures(
      n_dev * m, 0.0, stf::core::ArenaAllocator<double>(&caller_arena));
  stf::core::parallel_for(
      0, (n_dev + width - 1) / width,
      [&](std::size_t group) {
        const std::size_t lo = group * width;
        const std::size_t hi = std::min(lo + width, n_dev);
        stf::core::Arena& arena = stf::core::capture_arena();
        const stf::core::ArenaScope scope(arena);
        stf::core::ArenaVector<const stf::rf::RfDut*> duts{
            stf::core::ArenaAllocator<const stf::rf::RfDut*>(&arena)};
        duts.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          const Pair& pr = pairs_[i / 2];
          duts.push_back(i % 2 == 0 ? pr.plus.dut.get() : pr.minus.dut.get());
        }
        stf::core::ArenaVector<stf::stats::Rng*> noiseless(
            hi - lo, nullptr,
            stf::core::ArenaAllocator<stf::stats::Rng*>(&arena));
        stf::core::ArenaVector<double> captures(
            (hi - lo) * n_cap, 0.0,
            stf::core::ArenaAllocator<double>(&arena));
        acquirer.raw_capture_lanes({duts.data(), duts.size()}, stimulus,
                                   {noiseless.data(), noiseless.size()},
                                   {captures.data(), captures.size()});
        const std::span<double> sigs(signatures.data() + lo * m,
                                     (hi - lo) * m);
        acquirer.signatures_into({captures.data(), captures.size()}, hi - lo,
                                 sigs);
        STF_ENSURE(stf::contracts::finite(sigs.data(), sigs.size()),
                   "SignatureAcquirer::acquire: non-finite signature bin "
                   "(NaN/Inf leaked through the stimulus/envelope/FFT "
                   "chain)");
      },
      1);
  if (a_s.rows() != m || a_s.cols() != k) a_s = stf::la::Matrix(m, k);
  for (std::size_t j = 0; j < k; ++j) {
    const double* sp = signatures.data() + 2 * j * m;
    const double* sm = sp + m;
    for (std::size_t i = 0; i < m; ++i)
      a_s(i, j) = (sp[i] - sm[i]) / (2.0 * rel_step_);
  }
  STF_ENSURE(stf::contracts::finite(a_s.data(), a_s.size()),
             "signature_sensitivity: non-finite sensitivity entry");
}

DeviceFactory lna900_factory() {
  return [](const std::vector<double>& process) {
    const stf::rf::LnaCharacterization ch =
        stf::rf::extract_lna_dut(process);
    DeviceCharacterization out;
    out.specs = ch.specs.to_vector();
    out.dut = ch.dut;
    return out;
  };
}

}  // namespace stf::sigtest
