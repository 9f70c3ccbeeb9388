// Tests of the versioned calibration store and the online recalibration
// loop (store/calibration_store.hpp, store/recalibrate.hpp):
//
//   * put/get round-trips bit-exactly through the on-disk bundle --
//     including hostile coefficient values (denormals, -0.0,
//     max-magnitude doubles) -- and versions are immutable and append-only.
//   * A bundle truncated at EVERY byte offset loads as a typed error
//     (StoreError / CalibrationParseError / ScreenParseError), never a
//     crash -- the frame-fuzz discipline applied to the persistence layer.
//   * The LRU+TTL cache serves hot versions from memory under a synthetic
//     caller-supplied clock (no wall-clock reads in the store).
//   * The drift loop closes: a latched drift alarm plus a deep-enough
//     golden window yields one refit, the rollback guard gates it, the
//     accepted candidate hot-swaps without stopping the pipeline, and the
//     swap resets the drift monitor (the PR's reset-semantics regression).
//   * In-flight lots finish on the calibration version they started with,
//     bit-identical to that version's serial reference, and concurrent
//     swaps always leave one intact (model, screen) pair published.
#include "store/calibration_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "circuit/lna900.hpp"
#include "dsp/pwl.hpp"
#include "linalg/matrix.hpp"
#include "rf/dut.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/outlier.hpp"
#include "stats/rng.hpp"
#include "store/recalibrate.hpp"

namespace {

using namespace stf;
namespace fs = std::filesystem;

/// Fresh per-test store root under the system temp dir, removed on exit.
class TempRoot {
 public:
  explicit TempRoot(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("stf_store_test_" + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempRoot() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A small deterministic fitted model + screen (4 bins, 2 specs): enough
/// structure to exercise serialization without a circuit in the loop.
struct SmallCalibration {
  std::shared_ptr<const sigtest::CalibrationModel> model;
  std::shared_ptr<const sigtest::OutlierScreen> screen;
};

SmallCalibration make_small_calibration(std::uint64_t seed = 42) {
  la::Matrix signatures(10, 4), specs(10, 2);
  stats::Rng rng(seed);
  for (std::size_t r = 0; r < signatures.rows(); ++r) {
    std::vector<double> sig = rng.uniform_vector(4, -1.0, 1.0);
    signatures.set_row(r, sig);
    specs.set_row(r, {2.0 * sig[0] + 0.5 * sig[1] + rng.normal(0.0, 0.01),
                      sig[2] - sig[3] + rng.normal(0.0, 0.01)});
  }
  auto model = std::make_shared<sigtest::CalibrationModel>();
  model->fit(signatures, specs);
  auto screen = std::make_shared<sigtest::OutlierScreen>();
  screen->fit(signatures);
  return {std::move(model), std::move(screen)};
}

store::StoreKey small_key() {
  store::StoreKey key;
  key.scenario = "lna:spread=0.2:pop=77";
  return key;
}

/// The one version file of `key` under `root` (fails the test when the
/// layout does not hold exactly one v*.stfcal).
fs::path only_version_file(const std::string& root) {
  fs::path found;
  int count = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == ".stfcal") {
      found = entry.path();
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one version bundle under " << root;
  return found;
}

TEST(CalibrationStoreTest, PutGetRoundTripsBitExactAndVersionsAppend) {
  TempRoot root("roundtrip");
  store::CalibrationStore cal_store(root.path());
  const auto key = small_key();
  const auto v1 = make_small_calibration(42);
  const auto v2 = make_small_calibration(43);

  EXPECT_EQ(cal_store.latest_version(key), 0u);
  EXPECT_EQ(cal_store.put(key, v1.model, v1.screen), 1u);
  EXPECT_EQ(cal_store.put(key, v2.model, v2.screen), 2u);
  EXPECT_EQ(cal_store.latest_version(key), 2u);
  EXPECT_EQ(cal_store.versions(key), (std::vector<std::uint64_t>{1, 2}));

  // Survive process "restart": a fresh store over the same root.
  store::CalibrationStore reopened(root.path());
  const auto latest = reopened.get(key);
  EXPECT_EQ(latest.version, 2u);
  const auto old_version = reopened.get(key, 1);
  EXPECT_EQ(old_version.version, 1u);
  ASSERT_NE(latest.model, nullptr);
  ASSERT_NE(old_version.screen, nullptr);

  // Bit-exact round trip: identical predictions and screen scores on
  // fresh signatures (the wire carries raw f64 semantics end to end).
  stats::Rng rng(7);
  for (int i = 0; i < 16; ++i) {
    const sigtest::Signature sig = rng.uniform_vector(4, -2.0, 2.0);
    const auto want1 = v1.model->predict(sig);
    const auto got1 = old_version.model->predict(sig);
    const auto want2 = v2.model->predict(sig);
    const auto got2 = latest.model->predict(sig);
    ASSERT_EQ(want1.size(), got1.size());
    for (std::size_t s = 0; s < want1.size(); ++s) {
      EXPECT_EQ(want1[s], got1[s]) << "v1 spec " << s;
      EXPECT_EQ(want2[s], got2[s]) << "v2 spec " << s;
    }
    EXPECT_EQ(v1.screen->score(sig), old_version.screen->score(sig));
    EXPECT_EQ(v2.screen->score(sig), latest.screen->score(sig));
  }

  // Model-only persistence: the screen comes back null, never invented.
  EXPECT_EQ(cal_store.put(key, v1.model), 3u);
  EXPECT_EQ(store::CalibrationStore(root.path()).get(key, 3).screen, nullptr);
}

TEST(CalibrationStoreTest, HostileCoefficientsSurviveThePersistLoadCycle) {
  // Adversarial doubles straight through serialize -> bundle -> disk ->
  // parse: denormal minimum, negative zero, largest finite magnitudes.
  // The text layer must reproduce each bit pattern exactly; predict()
  // through the loaded model must match the original bit for bit.
  constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::string hostile_text =
      "sigtest-calibration v1\n"
      "poly_degree 1\n"
      "ridge_lambda 0.01\n"
      "min_bin_snr 1\n"
      "bin_mean 2 -0 4.9406564584124654e-324\n"
      "bin_scale 2 1 1.7976931348623157e+308\n"
      "bin_alive 2 1 1\n"
      "spec_mean 1 -0\n"
      "spec_scale 1 2.2250738585072014e-308\n"
      "weights 1 3 4.9406564584124654e-324 -1.7976931348623157e+308 -0\n";
  auto model = std::make_shared<const sigtest::CalibrationModel>(
      sigtest::CalibrationModel::deserialize(hostile_text));

  TempRoot root("hostile");
  store::CalibrationStore cal_store(root.path());
  const auto key = small_key();
  ASSERT_EQ(cal_store.put(key, model), 1u);
  const auto loaded = store::CalibrationStore(root.path()).get(key);
  ASSERT_NE(loaded.model, nullptr);

  const std::vector<sigtest::Signature> probes = {
      {0.0, 0.0},
      {kDenormal, -kDenormal},
      {-0.0, kMax},
      {1.0, -1.0},
  };
  for (const auto& sig : probes) {
    const auto want = model->predict(sig);
    const auto got = loaded.model->predict(sig);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(std::signbit(want[s]), std::signbit(got[s]));
      EXPECT_EQ(want[s], got[s]);
    }
  }
  // The serialized forms themselves must agree byte for byte.
  EXPECT_EQ(model->serialize(), loaded.model->serialize());
}

TEST(CalibrationStoreTest, TruncationAtEveryByteFailsTyped) {
  TempRoot root("truncate");
  const auto key = small_key();
  {
    store::CalibrationStore writer(root.path());
    const auto cal = make_small_calibration();
    ASSERT_EQ(writer.put(key, cal.model, cal.screen), 1u);
  }
  const fs::path bundle = only_version_file(root.path());
  std::string full;
  {
    std::ifstream in(bundle, std::ios::binary);
    ASSERT_TRUE(in.good());
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 100u);

  for (std::size_t len = 0; len < full.size(); ++len) {
    {
      std::ofstream out(bundle, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(len));
    }
    // Fresh store each probe: only successful loads may be cached.
    store::CalibrationStore reader(root.path());
    try {
      (void)reader.get(key, 1);
      FAIL() << "truncation to " << len << " bytes parsed successfully";
    } catch (const store::StoreError&) {
    } catch (const sigtest::CalibrationParseError&) {
    } catch (const sigtest::ScreenParseError&) {
    }
    // Any other exception type (or a crash) fails the harness.
  }

  // Restore and confirm the intact bundle still loads.
  {
    std::ofstream out(bundle, std::ios::binary | std::ios::trunc);
    out << full;
  }
  EXPECT_EQ(store::CalibrationStore(root.path()).get(key, 1).version, 1u);

  // Trailing garbage after the trailer is also a typed failure.
  {
    std::ofstream out(bundle, std::ios::binary | std::ios::trunc);
    out << full << "extra";
  }
  EXPECT_THROW(store::CalibrationStore(root.path()).get(key, 1),
               store::StoreError);
}

TEST(CalibrationStoreTest, CacheServesWithinTtlUnderSyntheticClock) {
  TempRoot root("ttl");
  store::StoreOptions options;
  options.ttl_us = 1'000'000;
  store::CalibrationStore cal_store(root.path(), options);
  const auto key = small_key();
  const auto cal = make_small_calibration();
  ASSERT_EQ(cal_store.put(key, cal.model, cal.screen, /*now_us=*/0), 1u);

  // Remove the bundle behind the cache's back: a fresh-enough entry is
  // served from memory (no disk read), a TTL-expired one must fall back
  // to disk and fail typed.
  fs::remove(only_version_file(root.path()));
  EXPECT_EQ(cal_store.get(key, 1, /*now_us=*/999'999).version, 1u);
  EXPECT_THROW((void)cal_store.get(key, 1, /*now_us=*/2'000'000),
               store::StoreError);
  EXPECT_EQ(cal_store.cache_size(), 0u) << "expired entry must be dropped";
}

TEST(CalibrationStoreTest, LruBoundsTheCacheAndEvictIsCacheOnly) {
  TempRoot root("lru");
  store::StoreOptions options;
  options.cache_capacity = 1;
  store::CalibrationStore cal_store(root.path(), options);
  const auto key = small_key();
  const auto cal = make_small_calibration();
  ASSERT_EQ(cal_store.put(key, cal.model, cal.screen), 1u);
  ASSERT_EQ(cal_store.put(key, cal.model, cal.screen), 2u);
  EXPECT_EQ(cal_store.cache_size(), 1u) << "capacity 1 must hold";

  EXPECT_EQ(cal_store.evict(key), 1u);
  EXPECT_EQ(cal_store.cache_size(), 0u);
  // Disk untouched: both versions still load.
  EXPECT_EQ(cal_store.get(key, 1).version, 1u);
  EXPECT_EQ(cal_store.get(key, 2).version, 2u);
}

TEST(CalibrationStoreTest, KeysListsAndPruneDeletesOldVersions) {
  TempRoot root("keys");
  store::CalibrationStore cal_store(root.path());
  const auto cal = make_small_calibration();
  store::StoreKey key_a = small_key();
  store::StoreKey key_b = small_key();
  key_b.scenario = "lna:spread=0.1:pop=5";
  key_b.temp_bin_c = 85;
  ASSERT_EQ(cal_store.put(key_a, cal.model, cal.screen), 1u);
  ASSERT_EQ(cal_store.put(key_a, cal.model, cal.screen), 2u);
  ASSERT_EQ(cal_store.put(key_a, cal.model, cal.screen), 3u);
  ASSERT_EQ(cal_store.put(key_b, cal.model, cal.screen), 1u);

  const auto keys = store::CalibrationStore(root.path()).keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_TRUE((keys[0] == key_a && keys[1] == key_b) ||
              (keys[0] == key_b && keys[1] == key_a));

  EXPECT_EQ(cal_store.prune(key_a, /*keep_from=*/3), 2u);
  EXPECT_EQ(cal_store.versions(key_a), (std::vector<std::uint64_t>{3}));
  EXPECT_THROW((void)cal_store.get(key_a, 1), store::StoreError);
  EXPECT_EQ(cal_store.get(key_a, 3).version, 3u);
  EXPECT_EQ(cal_store.versions(key_b), (std::vector<std::uint64_t>{1}));
}

TEST(CalibrationStoreTest, MissingKeysAndVersionsAreTypedErrors) {
  TempRoot root("missing");
  store::CalibrationStore cal_store(root.path());
  const auto key = small_key();
  EXPECT_THROW((void)cal_store.get(key), store::StoreError);
  const auto cal = make_small_calibration();
  ASSERT_EQ(cal_store.put(key, cal.model, cal.screen), 1u);
  EXPECT_THROW((void)cal_store.get(key, 99), store::StoreError);
}

// ---------------------------------------------------------------------------
// The online recalibration loop, over a real calibrated runtime.

constexpr std::size_t kCalDevices = 12;
constexpr std::size_t kGoldens = 4;

/// One calibrated TestCell + a handful of golden devices, built once
/// (characterization dominates the suite's cost), and a second calibration
/// of the same recipe on an alternate training set.
struct RecalWorld {
  std::shared_ptr<sigtest::TestCell> runtime_template;
  sigtest::CalibrationVersion alternate;
  std::vector<rf::DeviceRecord> goldens;
  std::vector<rf::DeviceRecord> lot;

  RecalWorld()
      : runtime_template(make_runtime(21, 7)),
        alternate(make_runtime(33, 11)->calibration()),
        goldens(rf::make_lna_population(kGoldens, 0.05, 99)),
        lot(rf::make_lna_population(10, 0.2, 77)) {}

  static std::shared_ptr<sigtest::TestCell> make_runtime(
      std::uint64_t population_seed, std::uint64_t rng_seed) {
    const auto config = sigtest::SignatureTestConfig::simulation_study();
    sigtest::GuardPolicy policy;
    policy.outlier_threshold = 2.5;
    auto runtime = std::make_shared<sigtest::TestCell>(
        config, stimulus(), circuit::LnaSpecs::names(), policy,
        sigtest::BatchOptions{4});
    const auto cal =
        rf::make_lna_population(kCalDevices, 0.2, population_seed);
    stats::Rng rng(rng_seed);
    runtime->calibrate(cal, rng);
    return runtime;
  }

  /// A fresh runtime with the template's calibration (version 1) but its
  /// own drift/swap state, so tests never contaminate each other.
  std::shared_ptr<sigtest::TestCell> fresh_runtime() const {
    return std::make_shared<sigtest::TestCell>(*runtime_template);
  }

  static dsp::PwlWaveform stimulus() {
    const auto cfg = sigtest::SignatureTestConfig::simulation_study();
    return dsp::PwlWaveform::uniform(
        cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.05, 0.2, 0.0, -0.2, 0.1});
  }
};

RecalWorld& recal_world() {
  static RecalWorld world;
  return world;
}

store::RecalPolicy small_policy() {
  store::RecalPolicy policy;
  policy.window_capacity = 48;
  policy.min_refit_rows = 16;
  return policy;
}

TEST(RecalibratorTest, DriftAlarmDrivesOneRefitSwapAndPersist) {
  TempRoot root("driftloop");
  auto cal_store = std::make_shared<store::CalibrationStore>(root.path());
  auto runtime = recal_world().fresh_runtime();
  store::Recalibrator recal(runtime, cal_store, small_key(), small_policy());

  const auto& goldens = recal_world().goldens;
  const rf::FaultInjector drift{{rf::FaultSpec::gain_drift(4e-3)}};
  stats::Rng rng(13);

  // Stream drifting golden checks (rotating through the golden set so the
  // refit window spans real device diversity) until the alarm latches,
  // then keep going until the window is deep enough post-alarm.
  bool alarmed = false;
  std::uint64_t sequence = 0;
  while (!alarmed || recal.window_rows() < small_policy().min_refit_rows) {
    ASSERT_LT(sequence, 400u) << "drift never latched the alarm";
    const auto& golden = goldens[sequence % goldens.size()];
    const auto status = recal.observe_golden(
        *golden.dut, golden.specs.to_vector(), rng, &drift, sequence);
    alarmed = alarmed || status.alarm;
    ++sequence;
  }
  ASSERT_TRUE(runtime->recalibration_needed());
  EXPECT_EQ(runtime->calibration().version, 1u);

  const auto report = recal.maybe_recalibrate();
  EXPECT_TRUE(report.attempted);
  EXPECT_TRUE(report.swapped) << "candidate err " << report.candidate_error
                              << " vs current " << report.current_error;
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(report.version, 2u);
  EXPECT_LT(report.candidate_error, report.current_error)
      << "refit on drifted-path goldens must beat the pre-drift model";

  // The swap is visible, persisted, and resets the drift monitor.
  EXPECT_EQ(runtime->calibration().version, 2u);
  EXPECT_FALSE(runtime->recalibration_needed());
  EXPECT_EQ(runtime->drift_checks(), 0u);
  EXPECT_EQ(cal_store->latest_version(recal.key()), 1u)
      << "the swapped-in model is version 1 in a fresh store";
  EXPECT_EQ(recal.refits(), 1u);
  EXPECT_EQ(recal.swaps(), 1u);
  EXPECT_EQ(recal.rollbacks(), 0u);
  EXPECT_EQ(recal.window_rows(), 0u)
      << "a successful swap must retire the pre-swap window";

  // No alarm, no refit: the loop is quiescent after recovery.
  const auto idle = recal.maybe_recalibrate();
  EXPECT_FALSE(idle.attempted);
  EXPECT_EQ(recal.refits(), 1u);
}

TEST(RecalibratorTest, PoisonedWindowRollsBackAndKeepsTheLiveVersion) {
  auto runtime = recal_world().fresh_runtime();
  store::Recalibrator recal(runtime, nullptr, small_key(), small_policy());
  const auto& goldens = recal_world().goldens;
  stats::Rng rng(17);

  // Harvest one clean signature to shape the poison rows.
  sigtest::Signature clean_sig;
  (void)runtime->monitor_golden(*goldens[0].dut, rng, nullptr, 0,
                                          &clean_sig);
  runtime->reset_drift_monitor();
  ASSERT_FALSE(clean_sig.empty());

  // Poison FIRST (it becomes the training split), clean goldens LAST
  // (they become the holdout): the poison rows carry plausible signatures
  // but wildly wrong spec labels, so the candidate learns a corrupted
  // mapping, is judged on truth, and the rollback guard must fire
  // deterministically.
  for (int i = 0; i < 14; ++i) {
    sigtest::Signature near_clean = clean_sig;
    for (std::size_t b = 0; b < near_clean.size(); ++b)
      near_clean[b] *= 1.0 + 0.01 * static_cast<double>((i + b) % 5);
    auto wrong_specs = goldens[i % goldens.size()].specs.to_vector();
    for (double& s : wrong_specs) s += 25.0;
    recal.push_window(near_clean, wrong_specs);
  }
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto& golden = goldens[s % goldens.size()];
    (void)recal.observe_golden(*golden.dut, golden.specs.to_vector(), rng,
                               nullptr, s);
  }

  const auto report = recal.recalibrate_now();
  EXPECT_TRUE(report.attempted);
  EXPECT_TRUE(report.rolled_back);
  EXPECT_FALSE(report.swapped);
  EXPECT_EQ(report.version, 1u) << "a rolled-back refit must keep version 1";
  EXPECT_GT(report.candidate_error, report.current_error);
  EXPECT_EQ(runtime->calibration().version, 1u);
  EXPECT_EQ(recal.rollbacks(), 1u);
  EXPECT_EQ(recal.swaps(), 0u);
}

// The PR's drift-monitor reset regression: swapping in a new calibration
// must clear the latched alarm, the smoothed EWMA, AND the sample count --
// a swap that leaked the old EWMA would instantly re-alarm a fresh model.
TEST(RecalibratorTest, SwapResetsAlarmEwmaAndSampleCount) {
  auto runtime = recal_world().fresh_runtime();
  sigtest::TestCell& cell = *runtime;
  const auto& golden = recal_world().goldens[0];
  const rf::FaultInjector drift{{rf::FaultSpec::gain_drift(4e-3)}};
  stats::Rng rng(19);

  bool alarmed = false;
  for (std::uint64_t s = 0; s < 300 && !alarmed; ++s)
    alarmed = cell.monitor_golden(*golden.dut, rng, &drift, s).alarm;
  ASSERT_TRUE(alarmed);
  ASSERT_TRUE(cell.recalibration_needed());
  ASSERT_GT(cell.drift_checks(), 0u);

  // Swap the existing calibration back in (content is irrelevant; the
  // version bump and state reset are what's under test).
  const auto cal = cell.calibration();
  const std::uint64_t v = cell.swap_calibration(cal.model, cal.screen);
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(cell.recalibration_needed()) << "alarm must clear on swap";
  EXPECT_EQ(cell.drift_checks(), 0u) << "sample count must clear on swap";

  // First post-swap check seeds the EWMA from scratch: ewma == score, with
  // no contribution from the pre-swap drifted history.
  const auto status = cell.monitor_golden(*golden.dut, rng);
  EXPECT_EQ(status.ewma, status.score) << "EWMA must re-seed after swap";
  EXPECT_FALSE(status.alarm);
}

// Regression: a swap used to publish the model twice, under two locks, so
// two concurrent swaps could leave model() on one pair's model while
// calibration() held the other pair. Two long-lived threads each swap in
// their own pair 50 times a round; after every round the cell must read
// back one intact pair through every accessor, having counted every swap.
TEST(RecalibratorTest, ConcurrentSwapsLeaveOneIntactPair) {
  constexpr int kRounds = 2000;
  constexpr int kSwapsPerThread = 50;
  auto runtime = recal_world().fresh_runtime();
  const sigtest::CalibrationVersion pairs[2] = {runtime->calibration(),
                                                recal_world().alternate};
  std::barrier round(3);
  const auto swapper = [&](const sigtest::CalibrationVersion& pair) {
    for (int r = 0; r < kRounds; ++r) {
      round.arrive_and_wait();
      for (int s = 0; s < kSwapsPerThread; ++s)
        (void)runtime->swap_calibration(pair.model, pair.screen);
      round.arrive_and_wait();
    }
  };
  std::thread first(swapper, std::cref(pairs[0]));
  std::thread second(swapper, std::cref(pairs[1]));
  int torn = 0, miscounted = 0;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t before = runtime->calibration().version;
    round.arrive_and_wait();  // both threads swap...
    round.arrive_and_wait();  // ...and are done
    const sigtest::CalibrationVersion cal = runtime->calibration();
    const bool intact =
        (cal.model == pairs[0].model && cal.screen == pairs[0].screen) ||
        (cal.model == pairs[1].model && cal.screen == pairs[1].screen);
    if (!intact || runtime->model() != cal.model ||
        runtime->screen() != cal.screen)
      ++torn;
    if (cal.version != before + 2 * kSwapsPerThread) ++miscounted;
  }
  first.join();
  second.join();
  EXPECT_EQ(torn, 0) << "rounds of " << kRounds << " that ended torn";
  EXPECT_EQ(miscounted, 0) << "rounds of " << kRounds
                           << " that lost or added a version";
}

TEST(RecalibratorTest, InFlightLotsPinTheirStartingVersionBitExactly) {
  auto runtime = recal_world().fresh_runtime();
  const auto& lot_records = recal_world().lot;
  std::vector<const rf::RfDut*> lot;
  for (const auto& record : lot_records) lot.push_back(record.dut.get());
  constexpr std::uint64_t kSeed = 9001;

  // Serial references on both calibration versions. Version 2 is a refit
  // on a deterministic alternate training set.
  const stats::Rng base(kSeed);
  const auto reference_v1 = sigtest::serial_reference(*runtime, lot, base);
  const sigtest::CalibrationVersion& next = recal_world().alternate;

  // Reference for the swapped state: apply the same swap to a clone.
  auto swapped_clone = recal_world().fresh_runtime();
  ASSERT_EQ(swapped_clone->swap_calibration(next.model, next.screen), 2u);
  const auto reference_v2 =
      sigtest::serial_reference(*swapped_clone, lot, base);

  auto check = [&](const sigtest::LotResult& result) {
    ASSERT_TRUE(result.model_version == 1u || result.model_version == 2u);
    const auto& want =
        result.model_version == 1u ? reference_v1 : reference_v2;
    ASSERT_EQ(result.dispositions.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_TRUE(result.dispositions[i] == want[i]) << "device " << i;
  };

  // Lots race a hot swap: every lot must land on exactly one version's
  // serial reference -- never a mix -- and the pipeline never stops.
  std::atomic<bool> go{false};
  std::vector<sigtest::LotResult> results(6);
  std::thread tester([&] {
    while (!go.load()) {
    }
    for (auto& result : results)
      result = runtime->test_lot(lot, stats::Rng(kSeed), nullptr, 0);
  });
  std::thread swapper([&] {
    while (!go.load()) {
    }
    (void)runtime->swap_calibration(next.model, next.screen);
  });
  go.store(true);
  tester.join();
  swapper.join();

  for (const auto& result : results) check(result);
  // And after the dust settles the runtime serves version 2 exactly.
  const auto settled = runtime->test_lot(lot, stats::Rng(kSeed), nullptr, 0);
  EXPECT_EQ(settled.model_version, 2u);
  check(settled);
}

}  // namespace
