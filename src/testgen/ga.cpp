#include "testgen/ga.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "stats/rng.hpp"

namespace stf::testgen {

namespace {

struct Individual {
  std::vector<double> genes;
  double fitness = std::numeric_limits<double>::infinity();
};

}  // namespace

GaResult ga_minimize(const BatchObjective& objective,
                     const std::vector<double>& lo,
                     const std::vector<double>& hi,
                     const GaOptions& options) {
  STF_REQUIRE(objective, "ga_minimize: null objective");
  STF_REQUIRE(!(lo.empty() || lo.size() != hi.size()),
              "ga_minimize: malformed bounds");
  for (std::size_t i = 0; i < lo.size(); ++i)
    STF_REQUIRE(lo[i] < hi[i], "ga_minimize: lo must be < hi");
  STF_REQUIRE(options.population >= 2, "ga_minimize: population < 2");
  STF_REQUIRE(options.elite < options.population,
              "ga_minimize: elite >= population");
  STF_REQUIRE(options.tournament_k != 0, "ga_minimize: tournament_k == 0");

  STF_TRACE_SPAN("ga.minimize");
  const std::size_t k = lo.size();
  stf::stats::Rng rng(options.seed);
  GaResult result;

  auto clamp_gene = [&](double v, std::size_t i) {
    return std::min(std::max(v, lo[i]), hi[i]);
  };

  // Fitness evaluation is the hot path (each call re-acquires a full
  // perturbation set of signatures in the stimulus optimizer), so every
  // generation is split into two phases: genes are drawn serially -- the RNG
  // stream is consumed in exactly the order the serial algorithm used -- and
  // the objective then scores the pending individuals in one batch call.
  // Each fitness depends on its own genes alone, so results are
  // bit-identical for any thread count and any batching. The pending genes
  // move into the batch and back, so evaluation copies none.
  std::vector<std::vector<double>> batch;
  std::vector<double> fitness;
  const auto evaluate = [&](std::vector<Individual>& individuals,
                            std::size_t begin) {
    STF_TRACE_SPAN("ga.evaluate_batch");
    const std::size_t count = individuals.size() - begin;
    batch.resize(count);
    fitness.assign(count, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < count; ++i)
      batch[i].swap(individuals[begin + i].genes);
    objective(batch, fitness);
    for (std::size_t i = 0; i < count; ++i) {
      individuals[begin + i].genes.swap(batch[i]);
      individuals[begin + i].fitness = fitness[i];
    }
    result.evaluations += count;
    STF_COUNT("ga.objective_evals", static_cast<std::uint64_t>(count));
  };

  // Initial population: uniform over the box.
  std::vector<Individual> pop(options.population);
  for (auto& ind : pop) {
    ind.genes.resize(k);
    for (std::size_t i = 0; i < k; ++i) ind.genes[i] = rng.uniform(lo[i], hi[i]);
  }
  evaluate(pop, 0);

  auto by_fitness = [](const Individual& a, const Individual& b) {
    return a.fitness < b.fitness;
  };
  std::sort(pop.begin(), pop.end(), by_fitness);

  auto tournament = [&]() -> const Individual& {
    std::size_t best = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(pop.size()) - 1));
    for (std::size_t t = 1; t < options.tournament_k; ++t) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(pop.size()) - 1));
      if (pop[idx].fitness < pop[best].fitness) best = idx;
    }
    return pop[best];
  };

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    STF_TRACE_SPAN("ga.generation");
    std::vector<Individual> next;
    next.reserve(options.population);
    // Elitism: carry the best forward untouched.
    for (std::size_t e = 0; e < options.elite; ++e) next.push_back(pop[e]);

    while (next.size() < options.population) {
      const Individual& pa = tournament();
      const Individual& pb = tournament();
      Individual child;
      child.genes.resize(k);
      // Blend (BLX-style) crossover, per gene.
      const bool crossover = rng.bernoulli(options.crossover_prob);
      for (std::size_t i = 0; i < k; ++i) {
        if (crossover) {
          const double alpha = rng.uniform(-0.25, 1.25);
          child.genes[i] =
              clamp_gene(pa.genes[i] + alpha * (pb.genes[i] - pa.genes[i]), i);
        } else {
          child.genes[i] = pa.genes[i];
        }
        if (rng.bernoulli(options.mutation_prob)) {
          const double sigma = options.mutation_sigma_frac * (hi[i] - lo[i]);
          child.genes[i] = clamp_gene(child.genes[i] + rng.normal(0.0, sigma),
                                      i);
        }
      }
      next.push_back(std::move(child));
    }
    // Elites keep their fitness; only the freshly bred tail is evaluated.
    evaluate(next, options.elite);
    pop = std::move(next);
    std::sort(pop.begin(), pop.end(), by_fitness);
    STF_ASSERT(!pop.empty(), "ga_minimize: population must stay non-empty");
    result.history.push_back(pop.front().fitness);
    STF_RECORD("ga.gen_best_fitness", pop.front().fitness);
  }

  result.best_genes = pop.front().genes;
  result.best_fitness = pop.front().fitness;
  return result;
}

GaResult ga_minimize(const Objective& objective, const std::vector<double>& lo,
                     const std::vector<double>& hi,
                     const GaOptions& options) {
  STF_REQUIRE(objective, "ga_minimize: null objective");
  return ga_minimize(
      [&objective](std::span<const std::vector<double>> genes,
                   std::span<double> fitness) {
        stf::core::parallel_for(
            0, genes.size(),
            [&](std::size_t i) { fitness[i] = objective(genes[i]); }, 1);
      },
      lo, hi, options);
}

}  // namespace stf::testgen
