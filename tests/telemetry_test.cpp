// Unit tests for the telemetry layer (core/telemetry.hpp): span nesting and
// aggregation, counter atomicity under parallel_for, histogram statistics,
// worker-span attachment to the dispatching region, Chrome-trace JSON
// validity, disabled-mode no-op guarantees, and reset semantics.
#include "core/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace {

namespace telem = stf::core::telemetry;

/// Pin the pool width for one test and restore the environment-resolved
/// default afterwards, so tests compose in any order.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { stf::core::set_thread_count(n); }
  ~ThreadCountGuard() { stf::core::set_thread_count(0); }
};

/// Enabled-collection fixture: every test starts from a clean slate and
/// leaves telemetry off. Tests that need collection skip themselves when the
/// build compiled the layer out.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!telem::compiled())
      GTEST_SKIP() << "built with SIGTEST_TELEMETRY=OFF";
    telem::set_enabled(true);
    telem::reset();
  }
  void TearDown() override {
    if (telem::compiled()) {
      telem::set_enabled(false);
      telem::reset();
    }
  }
};

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough to prove the exporters
// emit structurally valid JSON without depending on a parser library.
// ---------------------------------------------------------------------------
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST_F(TelemetryTest, SpanStatsCountAndNesting) {
  {
    STF_TRACE_SPAN("test.outer");
    for (int i = 0; i < 3; ++i) { STF_TRACE_SPAN("test.inner"); }
  }
  const telem::SpanStats outer = telem::span_stats("test.outer");
  const telem::SpanStats inner = telem::span_stats("test.inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(outer.max_depth, 0u);
  EXPECT_EQ(inner.count, 3u);
  EXPECT_EQ(inner.max_depth, 1u);
  EXPECT_GE(outer.total_ns, inner.total_ns);
  EXPECT_LE(inner.min_ns, inner.max_ns);
  EXPECT_EQ(telem::span_stats("test.never_recorded").count, 0u);
}

TEST_F(TelemetryTest, CountersAreExactUnderParallelFor) {
  ThreadCountGuard guard(4);
  constexpr std::size_t kN = 100000;
  stf::core::parallel_for(0, kN, [](std::size_t) {
    STF_COUNT("test.parallel_hits");
  });
  EXPECT_EQ(telem::counter_value("test.parallel_hits"), kN);
}

TEST_F(TelemetryTest, CountDeltaAndCachedReference) {
  STF_COUNT("test.delta", 5);
  STF_COUNT("test.delta", 7);
  EXPECT_EQ(telem::counter_value("test.delta"), 12u);
  telem::Counter& c = telem::counter("test.delta");
  c.add(3);
  EXPECT_EQ(telem::counter_value("test.delta"), 15u);
}

TEST_F(TelemetryTest, HistogramStats) {
  STF_RECORD("test.hist", 1.0);
  STF_RECORD("test.hist", 2.0);
  STF_RECORD("test.hist", 6.0);
  const telem::HistogramStats h = telem::histogram_stats("test.hist");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 9.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_EQ(telem::histogram_stats("test.never").count, 0u);
}

TEST_F(TelemetryTest, WorkerSpansAttachUnderDispatchingRegion) {
  // 4 participants (caller + 3 pool workers), 4 items at grain 1, and each
  // body spins until all 4 have arrived -- so every participant claims
  // exactly one chunk and the 3 workers each record a participation span
  // keyed "<region>/workers".
  ThreadCountGuard guard(4);
  std::atomic<int> arrived{0};
  {
    STF_TRACE_SPAN("test.region");
    stf::core::parallel_for(
        0, 4,
        [&](std::size_t) {
          arrived.fetch_add(1);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (arrived.load() < 4 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        },
        1);
  }
  ASSERT_EQ(arrived.load(), 4);
  // Each worker records its participation span before its last chunk is
  // counted, so all three are there as soon as parallel_for returns.
  const telem::SpanStats workers = telem::span_stats("test.region/workers");
  EXPECT_EQ(workers.count, 3u);
  EXPECT_EQ(workers.threads, 3u);
  EXPECT_EQ(telem::span_stats("test.region").count, 1u);
}

TEST_F(TelemetryTest, EveryWorkerSpanIsRecordedWhenParallelForReturns) {
  // Many small loops, each checked the moment parallel_for returns: the
  // trace must already hold one "parallel_for/workers" span per pool thread
  // that ran an index, and nothing may arrive later (a late span would land
  // after the reset and be counted against the next loop).
  ThreadCountGuard guard(4);
  constexpr std::size_t kItems = 8;
  std::vector<std::thread::id> ran_on(kItems);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t loops_with_workers = 0;
  for (int call = 0; call < 20000; ++call) {
    stf::core::parallel_for(
        0, kItems,
        [&](std::size_t i) {
          ran_on[i] = std::this_thread::get_id();
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(1);
          while (std::chrono::steady_clock::now() < until) {
          }
        },
        1);
    std::vector<std::thread::id> workers;
    for (const std::thread::id id : ran_on)
      if (id != caller &&
          std::find(workers.begin(), workers.end(), id) == workers.end())
        workers.push_back(id);
    // The body opens no spans, so every non-flow event is a worker span.
    ASSERT_EQ(telem::span_event_count(), workers.size()) << "call " << call;
    loops_with_workers += workers.empty() ? 0 : 1;
    telem::reset();
  }
  EXPECT_GT(loops_with_workers, 0u);
}

TEST_F(TelemetryTest, ChromeTraceIsValidJsonWithExpectedEvents) {
  {
    STF_TRACE_SPAN("test.trace_span");
    STF_COUNT("test.trace_counter");
  }
  const std::string trace = telem::chrome_trace();
  EXPECT_TRUE(JsonValidator(trace).valid()) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("test.trace_span"), std::string::npos);
  EXPECT_NE(trace.find("test.trace_counter"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);  // thread names
}

TEST_F(TelemetryTest, ToJsonAndSummaryAreWellFormed) {
  {
    STF_TRACE_SPAN("test.json_span");
    STF_RECORD("test.json_hist", 2.5);
  }
  const std::string json = telem::to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("test.json_span"), std::string::npos);
  const std::string table = telem::summary();
  EXPECT_NE(table.find("test.json_span"), std::string::npos);
  EXPECT_NE(table.find("test.json_hist"), std::string::npos);
}

TEST_F(TelemetryTest, ResetClearsCollectedData) {
  { STF_TRACE_SPAN("test.reset_span"); }
  STF_COUNT("test.reset_counter");
  STF_RECORD("test.reset_hist", 1.0);
  ASSERT_GE(telem::span_event_count(), 1u);
  telem::reset();
  EXPECT_EQ(telem::span_event_count(), 0u);
  EXPECT_EQ(telem::counter_value("test.reset_counter"), 0u);
  EXPECT_EQ(telem::histogram_stats("test.reset_hist").count, 0u);
  EXPECT_EQ(telem::span_stats("test.reset_span").count, 0u);
}

TEST_F(TelemetryTest, EventCapBoundsMemoryAndSurfacesDrops) {
  const std::size_t saved = telem::max_events_per_thread();
  telem::set_max_events_per_thread(8);
  EXPECT_EQ(telem::max_events_per_thread(), 8u);
  telem::reset();  // the cap applies per reset epoch
  for (int i = 0; i < 24; ++i) {
    STF_TRACE_SPAN("test.capped_span");
  }
  EXPECT_LE(telem::span_event_count(), 8u);
  EXPECT_GE(telem::dropped_event_count(), 16u);
  // Dropped events must be visible, not silent: summary() flags them and
  // to_json() exports the count for CI assertions.
  EXPECT_NE(telem::summary().find("DROPPED"), std::string::npos);
  const std::string json = telem::to_json();
  ASSERT_NE(json.find("\"dropped_events\":"), std::string::npos);
  EXPECT_EQ(json.find("\"dropped_events\":0"), std::string::npos);

  telem::set_max_events_per_thread(0);  // 0 restores the built-in default
  EXPECT_GT(telem::max_events_per_thread(), 8u);
  telem::set_max_events_per_thread(saved);
  telem::reset();
  EXPECT_EQ(telem::dropped_event_count(), 0u);
}

TEST_F(TelemetryTest, RepeatedExportsOfTheSameStateAreByteIdentical) {
  // The exporters feed golden files, CI artifacts and cross-run diffs, so
  // their output must be a pure function of the collected state: counters
  // and histograms are exported in sorted key order (never raw
  // unordered_map order, which is hash-seed-dependent), and no timestamps
  // or addresses leak in. Two exports of the same state must match byte
  // for byte.
  { STF_TRACE_SPAN("test.export_span"); }
  STF_COUNT("test.export_counter_b", 2);
  STF_COUNT("test.export_counter_a");
  STF_COUNT("test.export_counter_c", 7);
  STF_RECORD("test.export_hist_z", 1.5);
  STF_RECORD("test.export_hist_a", -3.0);
  stf::core::parallel_for(0, 64, [](std::size_t) {
    STF_TRACE_SPAN("test.export_worker_span");
  });

  EXPECT_EQ(telem::summary(), telem::summary());
  EXPECT_EQ(telem::to_json(), telem::to_json());
  EXPECT_EQ(telem::chrome_trace(), telem::chrome_trace());

  // Sorted-key contract, spot-checked on the JSON export.
  const std::string json = telem::to_json();
  const auto pos_a = json.find("test.export_counter_a");
  const auto pos_b = json.find("test.export_counter_b");
  const auto pos_c = json.find("test.export_counter_c");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_c, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_c);
  const auto hist_a = json.find("test.export_hist_a");
  const auto hist_z = json.find("test.export_hist_z");
  ASSERT_NE(hist_a, std::string::npos);
  ASSERT_NE(hist_z, std::string::npos);
  EXPECT_LT(hist_a, hist_z);
}

TEST(TelemetryDisabled, NothingIsRecordedAndValueIsNotEvaluated) {
  if (!telem::compiled()) GTEST_SKIP() << "built with SIGTEST_TELEMETRY=OFF";
  telem::set_enabled(false);
  telem::reset();
  int evaluations = 0;
  const auto expensive = [&]() {
    ++evaluations;
    return 1.0;
  };
  { STF_TRACE_SPAN("test.disabled_span"); }
  STF_COUNT("test.disabled_counter");
  STF_RECORD("test.disabled_hist", expensive());
  EXPECT_EQ(evaluations, 0) << "STF_RECORD evaluated its value while off";
  EXPECT_EQ(telem::span_event_count(), 0u);
  EXPECT_EQ(telem::counter_value("test.disabled_counter"), 0u);
  EXPECT_EQ(telem::histogram_stats("test.disabled_hist").count, 0u);
}

TEST(TelemetryDisabled, TogglingMidSpanStillClosesCleanly) {
  if (!telem::compiled()) GTEST_SKIP() << "built with SIGTEST_TELEMETRY=OFF";
  telem::set_enabled(true);
  telem::reset();
  {
    STF_TRACE_SPAN("test.toggle_span");
    telem::set_enabled(false);
  }
  // The span captured the gate at construction, so it still records.
  EXPECT_EQ(telem::span_stats("test.toggle_span").count, 1u);
  telem::reset();
}

}  // namespace
