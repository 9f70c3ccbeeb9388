// Unit tests for the test cell's lot engine (sigtest/cell.hpp): the
// determinism contract (lot dispositions bit-identical to the serial
// guarded reference at 1 and 4 threads, clean and faulted), batch-size
// invariance, first_sequence offsets, the ate flow over lot dispositions,
// empty-lot/degenerate handling, and that repeated lots run on the
// persistent pool instead of fresh threads.
#include "sigtest/cell.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ate/flow.hpp"
#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "dsp/pwl.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;

/// Pin the pool width for one test and restore the environment-resolved
/// default afterwards, so tests compose in any order.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

/// Shared calibrated cell + lot; building one per TEST is the dominant
/// cost, so the fixture reuses a lazily-built static.
class BatchRuntimeTest : public ::testing::Test {
 protected:
  struct World {
    sigtest::TestCell cell;
    std::vector<rf::DeviceRecord> lot;

    explicit World(std::size_t batch_size)
        : cell(sigtest::SignatureTestConfig::simulation_study(), stimulus(),
               circuit::LnaSpecs::names(), policy(),
               sigtest::BatchOptions{batch_size}),
          lot(rf::make_lna_population(24, 0.2, 77)) {
      const auto cal = rf::make_lna_population(40, 0.2, 21);
      stats::Rng cal_rng(7);
      cell.calibrate(cal, cal_rng);
    }

    static dsp::PwlWaveform stimulus() {
      const auto cfg = sigtest::SignatureTestConfig::simulation_study();
      return dsp::PwlWaveform::uniform(
          cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
    }

    static sigtest::GuardPolicy policy() {
      sigtest::GuardPolicy p;
      p.outlier_threshold = 2.5;
      return p;
    }
  };

  static World& world() {
    static World w(5);
    return w;
  }

  static void expect_identical(const std::vector<sigtest::TestDisposition>& a,
                               const std::vector<sigtest::TestDisposition>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(a[i] == b[i]) << "device " << i;
  }
};

TEST_F(BatchRuntimeTest, CleanLotMatchesSerialReferenceAtEveryThreadCount) {
  World& w = world();
  const auto serial =
      sigtest::serial_reference(w.cell, w.lot, stats::Rng(9001), nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    const auto batched = w.cell.test_lot(w.lot, stats::Rng(9001));
    expect_identical(serial, batched.dispositions);
    EXPECT_EQ(batched.predicted + batched.retried + batched.routed,
              w.lot.size());
  }
}

TEST_F(BatchRuntimeTest, FaultedLotMatchesSerialReferenceAtEveryThreadCount) {
  World& w = world();
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto serial =
      sigtest::serial_reference(w.cell, w.lot, stats::Rng(9001), &faults);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    const auto batched = w.cell.test_lot(w.lot, stats::Rng(9001), &faults);
    expect_identical(serial, batched.dispositions);
  }
  // The scenario must actually exercise the guard, or the equivalence above
  // proves nothing about the retest path.
  int guarded_activity = 0;
  for (const auto& d : serial)
    if (d.attempts > 1 || d.kind == sigtest::DispositionKind::kRoutedToConventional)
      ++guarded_activity;
  EXPECT_GT(guarded_activity, 0);
}

TEST_F(BatchRuntimeTest, BatchSizeDoesNotChangeDispositions) {
  ThreadCountGuard guard(4);
  World& w = world();
  const auto faults = rf::FaultInjector::parse("clip:0.12");
  const auto serial =
      sigtest::serial_reference(w.cell, w.lot, stats::Rng(9001), &faults);
  // SIZE_MAX: the chunk count and a chunk's end must not wrap.
  for (const std::size_t batch_size :
       {std::size_t{1}, std::size_t{5}, std::size_t{64},
        std::numeric_limits<std::size_t>::max()}) {
    sigtest::TestCell cell(
        sigtest::SignatureTestConfig::simulation_study(), World::stimulus(),
        circuit::LnaSpecs::names(), World::policy(),
        sigtest::BatchOptions{batch_size});
    const auto cal = rf::make_lna_population(40, 0.2, 21);
    stats::Rng cal_rng(7);
    cell.calibrate(cal, cal_rng);
    const auto batched = cell.test_lot(w.lot, stats::Rng(9001), &faults);
    expect_identical(serial, batched.dispositions);
  }
}

TEST_F(BatchRuntimeTest, FirstSequenceOffsetsTheDerivedStreams) {
  ThreadCountGuard guard(4);
  World& w = world();
  constexpr std::uint64_t kOffset = 1000;
  const auto serial = sigtest::serial_reference(w.cell, w.lot,
                                                stats::Rng(9001), nullptr,
                                                kOffset);
  const auto batched =
      w.cell.test_lot(w.lot, stats::Rng(9001), nullptr, kOffset);
  expect_identical(serial, batched.dispositions);
  // And the offset lot must differ from the unoffset one somewhere, or the
  // parameter is dead.
  const auto base = w.cell.test_lot(w.lot, stats::Rng(9001));
  bool any_diff = false;
  for (std::size_t i = 0; i < base.dispositions.size() && !any_diff; ++i)
    any_diff = base.dispositions[i].predicted != batched.dispositions[i].predicted;
  EXPECT_TRUE(any_diff);
}

TEST_F(BatchRuntimeTest, TalliesMatchDispositionKinds) {
  ThreadCountGuard guard(1);
  World& w = world();
  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto r = w.cell.test_lot(w.lot, stats::Rng(9001), &faults);
  std::size_t predicted = 0, retried = 0, routed = 0;
  for (const auto& d : r.dispositions) {
    switch (d.kind) {
      case sigtest::DispositionKind::kPredicted: ++predicted; break;
      case sigtest::DispositionKind::kPredictedAfterRetry: ++retried; break;
      case sigtest::DispositionKind::kRoutedToConventional: ++routed; break;
    }
  }
  EXPECT_EQ(r.predicted, predicted);
  EXPECT_EQ(r.retried, retried);
  EXPECT_EQ(r.routed, routed);
  EXPECT_EQ(r.devices(), w.lot.size());
}

TEST_F(BatchRuntimeTest, EmptyLotReturnsEmptyResult) {
  World& w = world();
  const std::vector<const rf::RfDut*> empty;
  const auto r = w.cell.test_lot(empty, stats::Rng(9001));
  EXPECT_EQ(r.devices(), 0u);
  EXPECT_EQ(r.predicted + r.retried + r.routed, 0u);
}

/// The top-level "threads" field of telemetry::to_json(): how many threads
/// have registered a telemetry log in this process.
std::size_t telemetry_threads() {
  const std::string json = core::telemetry::to_json();
  const std::string key = "\"threads\":";
  const std::size_t at = json.find(key);  // the top-level field comes first
  if (at == std::string::npos) {
    ADD_FAILURE() << "to_json() has no threads field: " << json;
    return 0;
  }
  return std::stoul(json.substr(at + key.size()));
}

TEST_F(BatchRuntimeTest, RepeatedLotsRegisterNoNewTelemetryThreads) {
  // Lots must run on the persistent pool: a lot that spawned its own
  // threads would, with telemetry on, register per-thread logs that live
  // for the rest of the process, so a long-running server grows them
  // without bound.
  namespace telemetry = core::telemetry;
  if (!telemetry::compiled())
    GTEST_SKIP() << "built with SIGTEST_TELEMETRY=OFF";
  ThreadCountGuard guard(4);
  World& w = world();
  telemetry::set_enabled(true);
  // Have every pool thread record an event before the baseline: four
  // one-index chunks that each wait until all four are claimed can only
  // finish with the caller and each of the three workers holding one.
  std::atomic<std::size_t> arrived{0};
  core::parallel_for(
      0, 4,
      [&](std::size_t) {
        arrived.fetch_add(1);
        while (arrived.load() < 4) std::this_thread::yield();
      },
      1);
  w.cell.test_lot(w.lot, stats::Rng(9001));  // warm-up lot
  const std::size_t before = telemetry_threads();
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    w.cell.test_lot(w.lot, stats::Rng(seed));
  const std::size_t after = telemetry_threads();
  telemetry::set_enabled(false);
  telemetry::reset();
  EXPECT_EQ(after, before);
}

TEST_F(BatchRuntimeTest, RejectsInvalidOptionsAndUncalibratedUse) {
  EXPECT_CONTRACT_THROW(sigtest::TestCell(
                            sigtest::SignatureTestConfig::simulation_study(),
                            World::stimulus(), circuit::LnaSpecs::names(),
                            World::policy(), sigtest::BatchOptions{0}),
                        std::invalid_argument);
  sigtest::TestCell uncalibrated(
      sigtest::SignatureTestConfig::simulation_study(), World::stimulus(),
      circuit::LnaSpecs::names(), World::policy());
  EXPECT_CONTRACT_THROW(uncalibrated.test_lot(world().lot, stats::Rng(1)),
                        std::invalid_argument);
}

TEST_F(BatchRuntimeTest, AteFlowConsumesLotDispositions) {
  ThreadCountGuard guard(1);
  World& w = world();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<ate::SpecLimit> limits = {
      {"gain_db", 14.2, kInf},
      {"nf_db", -kInf, 2.6},
      {"iip3_dbm", -12.0, kInf},
  };
  std::vector<std::vector<double>> truth;
  for (const auto& dev : w.lot) truth.push_back(dev.specs.to_vector());

  const auto faults = rf::FaultInjector::parse("clip:0.12,contact:0.05:0.05");
  const auto lot = w.cell.test_lot(w.lot, stats::Rng(9001), &faults);
  const auto flow =
      ate::run_production_flow(truth, lot.dispositions, limits, 0.1);

  // Predicted devices are decided on their predictions and routed ones on
  // their truth: the flow over the predicted devices alone, plus the routed
  // ones decided exactly -- first-attempt predictions of their truth, with
  // no guard band.
  const auto predicted_as = [](std::vector<double> specs) {
    sigtest::TestDisposition d;
    d.kind = sigtest::DispositionKind::kPredicted;
    d.predicted = std::move(specs);
    return d;
  };
  std::vector<std::vector<double>> truth_predicted, truth_routed;
  std::vector<sigtest::TestDisposition> predicted, routed_exact;
  for (std::size_t i = 0; i < lot.dispositions.size(); ++i) {
    const auto& d = lot.dispositions[i];
    if (d.has_prediction()) {
      truth_predicted.push_back(truth[i]);
      predicted.push_back(predicted_as(d.predicted));
    } else {
      truth_routed.push_back(truth[i]);
      routed_exact.push_back(predicted_as(truth[i]));
    }
  }
  const auto decided =
      ate::run_production_flow(truth_predicted, predicted, limits, 0.1);
  const auto exact =
      ate::run_production_flow(truth_routed, routed_exact, limits, 0.0);
  EXPECT_EQ(flow.true_pass, decided.true_pass + exact.true_pass);
  EXPECT_EQ(flow.true_fail, decided.true_fail + exact.true_fail);
  EXPECT_EQ(flow.test_escape, decided.test_escape);
  EXPECT_EQ(flow.yield_loss, decided.yield_loss);
  EXPECT_EQ(flow.total(), static_cast<int>(w.lot.size()));
  EXPECT_EQ(flow.retested, static_cast<int>(lot.retried));
  EXPECT_EQ(flow.routed_conventional, static_cast<int>(lot.routed));
}

}  // namespace
