// Real-coded genetic algorithm.
//
// The paper optimizes the PWL stimulus breakpoints with a genetic algorithm
// (Section 3.1, citing Goldberg): breakpoints encoded as the genome,
// successive generations lower the Eq. 10 objective. This is a generic
// bounded minimizer: tournament selection, blend crossover, gaussian
// mutation, elitism.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace stf::testgen {

/// Objective to MINIMIZE over a gene vector.
///
/// Each generation's pending individuals are evaluated through
/// stf::core::parallel_for, so the callable is invoked concurrently from
/// multiple threads (unless STF_THREADS=1): it must be thread-safe. Pure
/// functions of the gene vector qualify; mutable captured state must be
/// atomic or locked. Results are bit-identical for any thread count because
/// all genetic-operator randomness is drawn serially before evaluation.
using Objective = std::function<double(const std::vector<double>&)>;

/// Objective over a batch of gene vectors: writes fitness[i], the value to
/// MINIMIZE, for genes[i]. ga_minimize evaluates each generation's pending
/// individuals with one call, so an objective can share work across them
/// (the stimulus optimizer factors its candidates' A_s matrices in vector
/// lanes). Each fitness must depend on its own genes alone, never on the
/// batch it arrived in. Called from ga_minimize's thread; it may fan out
/// over stf::core::parallel_for itself.
using BatchObjective = std::function<void(
    std::span<const std::vector<double>> genes, std::span<double> fitness)>;

struct GaOptions {
  std::size_t population = 30;
  std::size_t generations = 25;
  double crossover_prob = 0.9;
  /// Per-gene mutation probability.
  double mutation_prob = 0.15;
  /// Mutation sigma as a fraction of each gene's bound range.
  double mutation_sigma_frac = 0.1;
  std::size_t tournament_k = 3;
  /// Top individuals copied unchanged into the next generation.
  std::size_t elite = 2;
  std::uint64_t seed = 1;
};

struct GaResult {
  std::vector<double> best_genes;
  double best_fitness = 0.0;
  /// Best objective after each generation (monotone non-increasing).
  std::vector<double> history;
  std::size_t evaluations = 0;
};

/// Minimize the objective over the box [lo, hi]^k.
/// Throws std::invalid_argument on malformed bounds or options.
GaResult ga_minimize(const BatchObjective& objective,
                     const std::vector<double>& lo,
                     const std::vector<double>& hi, const GaOptions& options);

/// The same for a per-individual objective: each batch's individuals are
/// evaluated through stf::core::parallel_for, one per chunk.
GaResult ga_minimize(const Objective& objective,
                     const std::vector<double>& lo,
                     const std::vector<double>& hi, const GaOptions& options);

}  // namespace stf::testgen
