#include "sigtest/optimizer.hpp"

#include <algorithm>
#include <span>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "linalg/pinv_lanes.hpp"

namespace stf::sigtest {

namespace {

double resolve_sigma_m(double sigma_m, const SignatureAcquirer& acquirer) {
  return sigma_m > 0.0 ? sigma_m : acquirer.expected_bin_noise_sigma();
}

}  // namespace

ObjectiveBreakdown evaluate_stimulus(const PerturbationSet& perturbations,
                                     const SignatureAcquirer& acquirer,
                                     const stf::dsp::PwlWaveform& stimulus,
                                     double sigma_m) {
  const stf::la::Matrix a_p = perturbations.spec_sensitivity();
  const stf::la::Matrix a_s =
      perturbations.signature_sensitivity(acquirer, stimulus);
  return signature_objective(a_p, a_s, resolve_sigma_m(sigma_m, acquirer));
}

OptimizedStimulus optimize_stimulus(const PerturbationSet& perturbations,
                                    const SignatureAcquirer& acquirer,
                                    const StimulusOptimizerConfig& config) {
  STF_REQUIRE(config.encoding.duration_s > 0.0,
              "optimize_stimulus: encoding duration must be > 0");
  STF_TRACE_SPAN("optimizer.optimize_stimulus");
  // A_p is stimulus-independent: compute it once outside the GA loop.
  const stf::la::Matrix a_p = perturbations.spec_sensitivity();
  const double sigma_m = resolve_sigma_m(config.sigma_m, acquirer);

  // A generation's A_s matrices and their pseudoinverses, allocated once
  // per search: the GA scores at most a population per batch.
  std::vector<stf::la::Matrix> a_s(config.ga.population);
  std::vector<stf::la::Matrix> as_pinv(config.ga.population);
  const auto objective = [&](std::span<const std::vector<double>> genes,
                             std::span<double> fitness) {
    STF_ASSERT(genes.size() <= a_s.size(),
               "optimize_stimulus: batch larger than the population");
    // Each candidate's A_s: its 2k captures and signatures run in lane
    // groups, inline on the worker that claimed the candidate.
    stf::core::parallel_for(
        0, genes.size(),
        [&](std::size_t i) {
          perturbations.signature_sensitivity(
              acquirer, config.encoding.decode(genes[i]), a_s[i]);
        },
        1);
    // Then pinv(A_s) for pinv_lane_width() candidates per pass, one per
    // vector lane, and each candidate's Eq. 8-10.
    const std::size_t width = stf::la::pinv_lane_width();
    stf::core::parallel_for(
        0, (genes.size() + width - 1) / width,
        [&](std::size_t group) {
          const std::size_t lo = group * width;
          const std::size_t n = std::min(width, genes.size() - lo);
          stf::la::pinv_lanes({a_s.data() + lo, n}, {as_pinv.data() + lo, n});
          for (std::size_t i = lo; i < lo + n; ++i)
            fitness[i] =
                signature_objective(a_p, a_s[i], as_pinv[i], sigma_m).f;
        },
        1);
  };

  const stf::testgen::GaResult ga = stf::testgen::ga_minimize(
      objective, config.encoding.lower_bounds(), config.encoding.upper_bounds(),
      config.ga);

  OptimizedStimulus out;
  out.waveform = config.encoding.decode(ga.best_genes);
  out.objective = ga.best_fitness;
  out.history = ga.history;
  out.evaluations = ga.evaluations;
  out.breakdown = signature_objective(
      a_p, perturbations.signature_sensitivity(acquirer, out.waveform),
      sigma_m);
  return out;
}

}  // namespace stf::sigtest
