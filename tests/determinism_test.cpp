// Thread-count determinism suite: every parallelized hot path must produce
// bit-identical results under STF_THREADS=1 and STF_THREADS=4. Exact
// (operator==) comparisons throughout -- "close enough" would hide
// scheduling-dependent reduction orders, which are precisely the bug class
// this suite exists to catch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

/// Pin the pool width for one run and restore the environment default after.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

std::vector<double> flatten_matrix(const la::Matrix& m) {
  return {m.data(), m.data() + m.size()};
}

TEST(ThreadDeterminism, LnaPopulationIsBitIdentical) {
  const auto run = [](std::size_t threads) {
    ThreadCountGuard guard(threads);
    return rf::make_lna_population(10, 0.2, 77);
  };
  const auto a = run(1);
  const auto b = run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].process, b[i].process) << "device " << i;
    EXPECT_EQ(a[i].specs.to_vector(), b[i].specs.to_vector())
        << "device " << i;
  }
}

TEST(ThreadDeterminism, SensitivityMatricesAreBitIdentical) {
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const auto stimulus = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.3, -0.3, 0.15, -0.15, 0.25, -0.25, 0.0});

  const auto run = [&](std::size_t threads) {
    ThreadCountGuard guard(threads);
    const sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                           circuit::Lna900::nominal(), 0.05);
    return std::pair{flatten_matrix(perturb.spec_sensitivity()),
                     flatten_matrix(
                         perturb.signature_sensitivity(acquirer, stimulus))};
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.first, b.first);    // A_p
  EXPECT_EQ(a.second, b.second);  // A_s
}

TEST(ThreadDeterminism, StimulusOptimizerIsBitIdentical) {
  // The full LNA900 GA study end-to-end, scaled down: signatures, GA
  // history, best genome and the final objective must not depend on the
  // worker count.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);

  const auto run = [&](std::size_t threads) {
    ThreadCountGuard guard(threads);
    const sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                           circuit::Lna900::nominal(), 0.05);
    sigtest::StimulusOptimizerConfig oc;
    oc.encoding.n_breakpoints = 8;
    oc.encoding.duration_s = config.capture_s;
    oc.encoding.v_min = -0.45;
    oc.encoding.v_max = 0.45;
    oc.ga.population = 6;
    oc.ga.generations = 3;
    oc.ga.seed = 5;
    return sigtest::optimize_stimulus(perturb, acquirer, oc);
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.waveform.to_csv(), b.waveform.to_csv());
}

TEST(ThreadDeterminism, CalibrationCoefficientsAreBitIdentical) {
  // Serialized model text is an exact fingerprint of every fitted
  // coefficient (17 significant digits), so string equality is bit equality.
  const auto run = [](std::size_t threads) {
    ThreadCountGuard guard(threads);
    stats::Rng rng(11);
    const std::size_t n = 40, m = 12, n_specs = 3;
    la::Matrix sig(n, m), specs(n, n_specs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
      for (std::size_t s = 0; s < n_specs; ++s) specs(i, s) = rng.normal();
    }
    sigtest::CalibrationOptions opts;
    opts.poly_degree = 2;
    sigtest::CalibrationModel model(opts);
    model.fit(sig, specs);
    return model.serialize();
  };
  const std::string a = run(1);
  const std::string b = run(4);
  EXPECT_EQ(a, b);
}

TEST(ThreadDeterminism, DerivedRngStreamsAreScheduleIndependent) {
  // derive(i) depends only on (seed, i): consuming the parent in a
  // different order, or deriving from a partially-consumed parent, must not
  // change any child stream -- that is what makes per-item streams safe to
  // hand out from a parallel loop.
  stats::Rng fresh(123);
  stats::Rng consumed(123);
  for (int i = 0; i < 100; ++i) consumed.normal();

  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    stats::Rng a = fresh.derive(stream);
    stats::Rng b = consumed.derive(stream);
    for (int draw = 0; draw < 16; ++draw)
      ASSERT_EQ(a.engine()(), b.engine()()) << "stream " << stream;
  }

  // Distinct streams must actually differ.
  stats::Rng s0 = fresh.derive(0);
  stats::Rng s1 = fresh.derive(1);
  EXPECT_NE(s0.engine()(), s1.engine()());
}

TEST(ThreadDeterminism, ParallelNoisyAcquisitionWithDerivedStreams) {
  // The sanctioned pattern for parallel noisy Monte-Carlo: item i draws
  // from rng.derive(i). Any schedule (serial loop or parallel_for at any
  // width) then yields identical captures.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const auto dut = rf::extract_lna_dut(circuit::Lna900::nominal()).dut;
  const auto stimulus = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0});
  const stats::Rng base(99);

  const auto run = [&](std::size_t threads) {
    ThreadCountGuard guard(threads);
    std::vector<sigtest::Signature> sigs(16);
    core::parallel_for(0, sigs.size(), [&](std::size_t i) {
      stats::Rng item = base.derive(i);
      sigs[i] = acquirer.acquire(*dut, stimulus, &item);
    });
    return sigs;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ThreadDeterminism, SharedAcquirerInterleavingStimuliIsBitIdentical) {
  // The GA's access pattern: one shared acquirer, every pool thread
  // acquiring a different stimulus, so each thread's prepared stimulus
  // keeps changing under concurrent use. Item i takes stimulus i % 3 on
  // its own derived noise stream.
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const auto dut = rf::extract_lna_dut(circuit::Lna900::nominal()).dut;
  const std::vector<dsp::PwlWaveform> stimuli = {
      dsp::PwlWaveform::uniform(config.capture_s, {0.0, 0.2, -0.2, 0.1, 0.0}),
      dsp::PwlWaveform::uniform(config.capture_s, {0.1, -0.3, 0.3, -0.1}),
      dsp::PwlWaveform::uniform(config.capture_s,
                                {0.0, 0.25, 0.0, -0.25, 0.0, 0.15})};
  const stats::Rng base(2024);
  const std::size_t n = 24;
  const auto acquire = [&](std::size_t i) {
    stats::Rng item = base.derive(i);
    return acquirer.acquire(*dut, stimuli[i % stimuli.size()], &item);
  };

  std::vector<sigtest::Signature> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = acquire(i);
  std::vector<sigtest::Signature> parallel(n);
  {
    ThreadCountGuard guard(4);
    core::parallel_for(0, n, [&](std::size_t i) { parallel[i] = acquire(i); });
  }
  EXPECT_EQ(serial, parallel);
}

}  // namespace
