// Tests of the benchmark's own helpers: the percentile rule, the block
// throughput, the Poisson schedule, the disposition digest and the report.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::Arrival;
using perfbench::RequestClass;
using stf::sigtest::CaptureFlaw;
using stf::sigtest::DispositionKind;
using stf::sigtest::TestDisposition;

TEST(PercentileRule, ReportedPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_FALSE(perfbench::percentile_reportable(50.0, 19));
  EXPECT_TRUE(perfbench::percentile_reportable(50.0, 20));
  EXPECT_FALSE(perfbench::percentile_reportable(90.0, 99));
  EXPECT_TRUE(perfbench::percentile_reportable(90.0, 100));
  EXPECT_FALSE(perfbench::percentile_reportable(99.0, 999));
  EXPECT_TRUE(perfbench::percentile_reportable(99.0, 1000));
  EXPECT_FALSE(perfbench::percentile_reportable(99.9, 9999));
  EXPECT_TRUE(perfbench::percentile_reportable(99.9, 10000));
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    for (std::size_t n = 1; n < 3000; ++n) {
      if (!perfbench::percentile_reportable(p, n)) continue;
      std::vector<double> samples(n);
      for (std::size_t i = 0; i < n; ++i) samples[i] = static_cast<double>(i);
      const double value = perfbench::percentile(samples, p);
      std::size_t beyond = 0;
      for (const double s : samples) beyond += s > value ? 1 : 0;
      EXPECT_GE(beyond, 10u) << "n=" << n << " p=" << p;
    }
  }
}

TEST(PercentileRule, NearestRank) {
  const std::vector<double> samples = {5, 1, 4, 2, 3};
  EXPECT_EQ(perfbench::percentile(samples, 50.0), 3.0);
  EXPECT_EQ(perfbench::percentile(samples, 90.0), 5.0);
  EXPECT_EQ(perfbench::percentile(samples, 20.0), 1.0);
  EXPECT_EQ(perfbench::percentile({}, 50.0), 0.0);
}

TEST(BlockPercentile, MedianOfBlocksIgnoresOneStall) {
  // 1000 samples of 1.0 with a stall (100.0) filling the fourth fifth.
  std::vector<double> samples(1000, 1.0);
  for (std::size_t i = 600; i < 800; ++i) samples[i] = 100.0;
  EXPECT_EQ(perfbench::block_percentile(samples, 90.0, 5), 1.0);
  EXPECT_EQ(perfbench::percentile(samples, 90.0), 100.0);
  // Too few samples for two reportable p90 blocks: the plain percentile.
  std::vector<double> few(150);
  for (std::size_t i = 0; i < few.size(); ++i) few[i] = static_cast<double>(i);
  EXPECT_EQ(perfbench::block_percentile(few, 90.0, 5),
            perfbench::percentile(few, 90.0));
  EXPECT_EQ(perfbench::block_percentile({}, 50.0, 5), 0.0);
}

TEST(BlockRate, MedianOfBlocksIgnoresOneStall) {
  // 30 units of 10 items, one every 0.1 s, except one 2 s stall.
  std::vector<perfbench::Completion> done;
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    t += i == 7 ? 2.0 : 0.1;
    done.push_back({t, 10.0});
  }
  EXPECT_NEAR(perfbench::median_block_rate(done, 10), 100.0, 1e-9);
  // Order does not matter; one block is the plain mean rate.
  std::swap(done[3], done[20]);
  EXPECT_NEAR(perfbench::median_block_rate(done, 1), 300.0 / t, 1e-9);
  EXPECT_EQ(perfbench::median_block_rate({}, 10), 0.0);
}

TEST(PoissonSchedule, SameSeedGivesTheSameSchedule) {
  const auto a = perfbench::poisson_schedule(7, 200.0, 10.0, 16, 4);
  const auto b = perfbench::poisson_schedule(7, 200.0, 10.0, 16, 4);
  const auto c = perfbench::poisson_schedule(8, 200.0, 10.0, 16, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].at_s),
              std::bit_cast<std::uint64_t>(b[i].at_s));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].pick, b[i].pick);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].at_s != c[i].at_s;
  EXPECT_TRUE(differs);
}

TEST(PoissonSchedule, RateMixAndReplayTargets) {
  const auto s = perfbench::poisson_schedule(11, 500.0, 20.0, 16, 4);
  EXPECT_EQ(s.size(), 10000u);
  std::size_t clean = 0, faulted = 0, replay = 0;
  std::vector<std::size_t> faulted_picks(4, 0);
  double last = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i].at_s, last);
    EXPECT_LT(s[i].at_s, 20.0);
    last = s[i].at_s;
    switch (s[i].kind) {
      case RequestClass::kClean:
        ++clean;
        EXPECT_LT(s[i].pick, 16u);
        break;
      case RequestClass::kFaulted:
        ++faulted;
        ASSERT_LT(s[i].pick, 4u);
        ++faulted_picks[s[i].pick];
        break;
      case RequestClass::kReplay:
        ++replay;
        ASSERT_LT(s[i].pick, i);  // re-sends an earlier original
        EXPECT_NE(s[s[i].pick].kind, RequestClass::kReplay);
        break;
    }
  }
  // Exact counts; only a re-send drawn among the first eight arrivals
  // becomes a clean lot.
  EXPECT_EQ(faulted, 1250u);
  EXPECT_LE(replay, 1250u);
  EXPECT_GE(replay, 1250u - 8u);
  EXPECT_EQ(clean + replay, 8750u);
  for (const std::size_t uses : faulted_picks) {  // 1250 = 4 x 312 + 2
    EXPECT_GE(uses, 312u);
    EXPECT_LE(uses, 313u);
  }
}

std::vector<TestDisposition> sample_lot() {
  std::vector<TestDisposition> lot(3);
  lot[0] = {DispositionKind::kPredicted, {1.5, -2.25, 3.0}, 1, 1, 0.75,
            CaptureFlaw::kNone};
  lot[1] = {DispositionKind::kPredictedAfterRetry, {0.1, 0.2, 0.3}, 2, 5, 1.25,
            CaptureFlaw::kOutlier};
  lot[2] = {DispositionKind::kRoutedToConventional, {}, 3, 21, 9.5,
            CaptureFlaw::kRailed};
  return lot;
}

double flip(double v, int bit) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                               (std::uint64_t{1} << bit));
}

TEST(DispositionDigest, OneFlippedBitInAnyFieldChangesIt) {
  const auto base = sample_lot();
  const std::uint64_t d0 = perfbench::disposition_digest(base);
  EXPECT_EQ(perfbench::disposition_digest(sample_lot()), d0);

  const auto changed = [&](auto mutate) {
    auto lot = sample_lot();
    mutate(lot);
    return perfbench::disposition_digest(lot) != d0;
  };
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 31; ++bit) {
      EXPECT_TRUE(changed([&](auto& l) { l[i].attempts ^= 1 << bit; }));
      EXPECT_TRUE(changed([&](auto& l) { l[i].captures ^= 1 << bit; }));
    }
    for (int bit = 0; bit < 64; ++bit) {
      EXPECT_TRUE(changed([&](auto& l) {
        l[i].outlier_score = flip(l[i].outlier_score, bit);
      }));
      for (std::size_t k = 0; k < base[i].predicted.size(); ++k)
        EXPECT_TRUE(changed([&](auto& l) {
          l[i].predicted[k] = flip(l[i].predicted[k], bit);
        }));
    }
    EXPECT_TRUE(changed([&](auto& l) {
      l[i].kind = static_cast<DispositionKind>(static_cast<int>(l[i].kind) ^ 1);
    }));
    EXPECT_TRUE(changed([&](auto& l) {
      l[i].last_flaw =
          static_cast<CaptureFlaw>(static_cast<int>(l[i].last_flaw) ^ 1);
    }));
  }
  // Moving a value between devices, or dropping a device, changes it too.
  EXPECT_TRUE(changed([](auto& l) { l[2].predicted.push_back(1.5); }));
  EXPECT_TRUE(changed([](auto& l) { l.pop_back(); }));
  EXPECT_TRUE(changed([](auto& l) { std::swap(l[0], l[1]); }));
}

TEST(Report, JsonHasEveryMetricWithAllDigits) {
  perfbench::Report r;
  r.add("latency_ms", 1.0 / 3.0, "ms");
  r.add("setup_s", 2.5, "s");
  EXPECT_EQ(r.json(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.5, \"unit\": "
            "\"s\"}}}");
  r.add("bad", std::nan(""), "ms");
  EXPECT_THROW(r.json(true, 1, 0), std::runtime_error);
}

}  // namespace
