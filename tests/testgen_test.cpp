// Tests for the genetic algorithm and the PWL genome encoding.
#include <atomic>
#include <cmath>

#include <gtest/gtest.h>

#include "testgen/ga.hpp"
#include "testgen/pwl_encoding.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf::testgen;

TEST(Ga, MinimizesSphereFunction) {
  const auto sphere = [](const std::vector<double>& x) {
    double s = 0.0;
    for (double v : x) s += v * v;
    return s;
  };
  GaOptions opts;
  opts.population = 40;
  opts.generations = 60;
  opts.seed = 5;
  auto r = ga_minimize(sphere, std::vector<double>(4, -5.0),
                       std::vector<double>(4, 5.0), opts);
  EXPECT_LT(r.best_fitness, 0.05);
  for (double g : r.best_genes) EXPECT_NEAR(g, 0.0, 0.3);
}

TEST(Ga, MinimizesShiftedQuadratic) {
  const auto obj = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  GaOptions opts;
  opts.population = 30;
  opts.generations = 80;
  opts.seed = 11;
  auto r = ga_minimize(obj, {-5.0, -5.0}, {5.0, 5.0}, opts);
  EXPECT_NEAR(r.best_genes[0], 2.0, 0.2);
  EXPECT_NEAR(r.best_genes[1], -1.0, 0.2);
}

TEST(Ga, MultimodalRastriginFindsGoodBasin) {
  // Not required to find the global optimum, but must land well below the
  // average function value (~10 per dimension).
  const auto rastrigin = [](const std::vector<double>& x) {
    double s = 10.0 * static_cast<double>(x.size());
    for (double v : x)
      s += v * v - 10.0 * std::cos(2.0 * M_PI * v);
    return s;
  };
  GaOptions opts;
  opts.population = 60;
  opts.generations = 100;
  opts.seed = 17;
  auto r = ga_minimize(rastrigin, std::vector<double>(3, -5.12),
                       std::vector<double>(3, 5.12), opts);
  EXPECT_LT(r.best_fitness, 5.0);
}

TEST(Ga, HistoryIsMonotoneNonIncreasing) {
  const auto obj = [](const std::vector<double>& x) {
    return std::abs(x[0] - 0.3);
  };
  GaOptions opts;
  opts.population = 10;
  opts.generations = 20;
  opts.seed = 23;
  auto r = ga_minimize(obj, {-1.0}, {1.0}, opts);
  ASSERT_EQ(r.history.size(), 20u);
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_LE(r.history[i], r.history[i - 1]);
}

TEST(Ga, DeterministicForSameSeed) {
  const auto obj = [](const std::vector<double>& x) { return x[0] * x[0]; };
  GaOptions opts;
  opts.seed = 31;
  auto a = ga_minimize(obj, {-1.0}, {1.0}, opts);
  auto b = ga_minimize(obj, {-1.0}, {1.0}, opts);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
  EXPECT_EQ(a.best_genes, b.best_genes);
}

TEST(Ga, RespectsBounds) {
  // Optimum outside the box: the GA must return the boundary region.
  const auto obj = [](const std::vector<double>& x) {
    return (x[0] - 10.0) * (x[0] - 10.0);
  };
  GaOptions opts;
  opts.population = 20;
  opts.generations = 40;
  opts.seed = 37;
  auto r = ga_minimize(obj, {-1.0}, {1.0}, opts);
  EXPECT_LE(r.best_genes[0], 1.0);
  EXPECT_GE(r.best_genes[0], -1.0);
  EXPECT_NEAR(r.best_genes[0], 1.0, 1e-6);
}

TEST(Ga, EvaluationBudgetAccounting) {
  // Atomic: the GA evaluates each generation's population concurrently
  // through the parallel core (see testgen/ga.hpp thread-safety note).
  std::atomic<int> calls{0};
  const auto obj = [&calls](const std::vector<double>& x) {
    ++calls;
    return x[0];
  };
  GaOptions opts;
  opts.population = 8;
  opts.generations = 5;
  opts.elite = 2;
  opts.seed = 41;
  auto r = ga_minimize(obj, {0.0}, {1.0}, opts);
  EXPECT_EQ(static_cast<int>(r.evaluations), calls.load());
  // Initial population + (population - elite) per generation.
  EXPECT_EQ(calls.load(), 8 + 5 * (8 - 2));
}

TEST(Ga, InvalidArgumentsThrow) {
  const auto obj = [](const std::vector<double>& x) { return x[0]; };
  GaOptions opts;
  EXPECT_CONTRACT_THROW(ga_minimize(Objective{}, {0.0}, {1.0}, opts),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(ga_minimize(BatchObjective{}, {0.0}, {1.0}, opts),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(ga_minimize(obj, {}, {}, opts), std::invalid_argument);
  EXPECT_CONTRACT_THROW(ga_minimize(obj, {1.0}, {0.0}, opts),
                        std::invalid_argument);
  opts.population = 1;
  EXPECT_CONTRACT_THROW(ga_minimize(obj, {0.0}, {1.0}, opts),
                        std::invalid_argument);
  opts.population = 10;
  opts.elite = 10;
  EXPECT_CONTRACT_THROW(ga_minimize(obj, {0.0}, {1.0}, opts),
                        std::invalid_argument);
}

// ------------------------------------------------------------ PwlEncoding --

TEST(PwlEncoding, DecodeProducesUniformBreakpoints) {
  PwlEncoding enc;
  enc.n_breakpoints = 4;
  enc.duration_s = 3e-6;
  auto w = enc.decode({0.1, -0.2, 0.3, 0.0});
  ASSERT_EQ(w.points().size(), 4u);
  EXPECT_DOUBLE_EQ(w.points()[1].t, 1e-6);
  EXPECT_DOUBLE_EQ(w.points()[1].v, -0.2);
  EXPECT_DOUBLE_EQ(w.duration(), 3e-6);
}

TEST(PwlEncoding, EncodeDecodeRoundTrip) {
  PwlEncoding enc;
  enc.n_breakpoints = 6;
  std::vector<double> genes{0.0, 0.1, -0.1, 0.2, -0.2, 0.05};
  auto w = enc.decode(genes);
  EXPECT_EQ(enc.encode(w), genes);
}

TEST(PwlEncoding, BoundsVectors) {
  PwlEncoding enc;
  enc.n_breakpoints = 5;
  enc.v_min = -0.3;
  enc.v_max = 0.4;
  auto lo = enc.lower_bounds();
  auto hi = enc.upper_bounds();
  ASSERT_EQ(lo.size(), 5u);
  for (double v : lo) EXPECT_DOUBLE_EQ(v, -0.3);
  for (double v : hi) EXPECT_DOUBLE_EQ(v, 0.4);
}

TEST(PwlEncoding, WrongGenomeLengthThrows) {
  PwlEncoding enc;
  enc.n_breakpoints = 4;
  EXPECT_CONTRACT_THROW(enc.decode({0.1, 0.2}), std::invalid_argument);
}

TEST(PwlEncoding, GaOptimizesPwlTowardTarget) {
  // End-to-end: find breakpoints approximating a triangle waveform by
  // matching rendered samples.
  PwlEncoding enc;
  enc.n_breakpoints = 5;
  enc.duration_s = 1.0;
  enc.v_min = -1.0;
  enc.v_max = 1.0;
  std::vector<double> target{0.0, 0.5, 1.0, 0.5, 0.0};
  const auto obj = [&](const std::vector<double>& genes) {
    auto w = enc.decode(genes);
    double err = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
      const double d = w.sample(static_cast<double>(i) * 0.25) - target[i];
      err += d * d;
    }
    return err;
  };
  GaOptions opts;
  opts.population = 40;
  opts.generations = 60;
  opts.seed = 43;
  auto r = ga_minimize(obj, enc.lower_bounds(), enc.upper_bounds(), opts);
  EXPECT_LT(r.best_fitness, 0.01);
}

}  // namespace
