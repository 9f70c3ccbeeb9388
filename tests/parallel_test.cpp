// Unit tests for the parallel execution core (core/parallel.hpp): loop
// correctness across grain sizes, deterministic exception propagation,
// nested-loop inlining, and STF_THREADS validation contracts.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using stf::core::parallel_for;
using stf::core::parse_thread_count;
using stf::core::set_thread_count;
using stf::core::thread_count;

/// Pin the pool width for one test and restore the environment-resolved
/// default afterwards, so tests compose in any order.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { set_thread_count(n); }
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(0, n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelFor, RespectsBeginOffsetAndGrain) {
  ThreadCountGuard guard(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                  std::size_t{100}}) {
    std::vector<int> out(50, 0);
    parallel_for(
        10, 50, [&](std::size_t i) { out[i] = static_cast<int>(i); }, grain);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], 0);
    for (std::size_t i = 10; i < 50; ++i)
      EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  ThreadCountGuard guard(4);
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; });
  parallel_for(7, 3, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, ResultsBitIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    ThreadCountGuard guard(threads);
    std::vector<double> out(257);
    parallel_for(0, out.size(), [&](std::size_t i) {
      double acc = static_cast<double>(i) + 0.5;
      for (int k = 0; k < 50; ++k) acc = acc * 1.0000001 + 1e-9;
      out[i] = acc;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  ThreadCountGuard guard(4);
  // Several indices throw; the survivor must always be the lowest one so
  // error reporting does not depend on thread scheduling.
  for (int rep = 0; rep < 5; ++rep) {
    try {
      parallel_for(
          0, 100,
          [](std::size_t i) {
            if (i == 13 || i == 57 || i == 99)
              throw std::runtime_error("boom " + std::to_string(i));
          },
          1);
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 13");
    }
  }
}

TEST(ParallelFor, SerialPathPropagatesExceptions) {
  ThreadCountGuard guard(1);
  EXPECT_THROW(parallel_for(0, 10,
                            [](std::size_t i) {
                              if (i == 3) throw std::invalid_argument("bad");
                            }),
               std::invalid_argument);
  // The failed inline loop must not leave the region flag stuck.
  EXPECT_FALSE(stf::core::in_parallel_region());
}

TEST(ParallelFor, NestedLoopsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  parallel_for(0, 16, [&](std::size_t i) {
    EXPECT_TRUE(stf::core::in_parallel_region());
    parallel_for(0, 16, [&](std::size_t j) { ++hits[i * 16 + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_FALSE(stf::core::in_parallel_region());
}

TEST(ParallelConfig, SetThreadCountOverridesAndReports) {
  ThreadCountGuard guard(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
}

TEST(ParallelConfig, ParseAcceptsPlainPositiveIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("8"), 8u);
  EXPECT_EQ(parse_thread_count("  16 "), 16u);
  EXPECT_EQ(parse_thread_count("1024"), 1024u);
}

TEST(ParallelConfig, ParseRejectsMalformedValues) {
  for (const char* bad : {"", "   ", "0", "-3", "abc", "4x", "1.5", "1e3",
                          "+4", "99999999999"}) {
    EXPECT_THROW(parse_thread_count(bad), std::invalid_argument)
        << "value: \"" << bad << '"';
  }
}

TEST(ParallelConfig, ParseRejectsValuesThatOverflowSizeT) {
  // Regression: digit accumulation used to wrap on values past 2^64, so
  // e.g. 2^64 + 1 parsed as "1" and silently configured a 1-thread pool.
  for (const char* huge :
       {"18446744073709551616",    // 2^64: wraps to 0
        "18446744073709551617",    // 2^64 + 1: wraps to 1, the nasty case
        "184467440737095516160",   // 10 * 2^64
        "99999999999999999999999999"}) {
    EXPECT_THROW(parse_thread_count(huge), std::invalid_argument)
        << "value: \"" << huge << '"';
  }
}

TEST(ParallelConfig, EnvironmentIsValidatedOnReResolve) {
  // set_thread_count(0) re-reads STF_THREADS: a bad value must throw and
  // leave the previous configuration intact.
  ThreadCountGuard guard(2);
  ASSERT_EQ(setenv("STF_THREADS", "not-a-number", 1), 0);
  EXPECT_THROW(set_thread_count(0), std::invalid_argument);
  EXPECT_EQ(thread_count(), 2u);

  ASSERT_EQ(setenv("STF_THREADS", "5", 1), 0);
  set_thread_count(0);
  EXPECT_EQ(thread_count(), 5u);

  ASSERT_EQ(unsetenv("STF_THREADS"), 0);
  set_thread_count(0);  // back to hardware default for later tests
  EXPECT_GE(thread_count(), 1u);
}

}  // namespace
