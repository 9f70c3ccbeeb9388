// Tests of the service layer's one cache (core/lru_cache.hpp): single-flight
// builds outside the lock -- a warm hit never waits on another key's build,
// racing callers of one cold key build once, a throwing build reaches every
// waiter and caches nothing -- plus LRU order, capacity, replacing puts,
// evicted values outliving the cache's reference, and exact hit/miss
// counts. Overlap is forced with latches and telemetry counters (a waiter
// counts its hit before it blocks), never with sleeps.
#include "core/lru_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/telemetry.hpp"

namespace {

using namespace stf;
namespace telemetry = core::telemetry;

/// Turns telemetry collection on for one test and off again after it.
class TelemetryOn {
 public:
  TelemetryOn() { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(false); }
};

/// Yield until counter `name` has grown by `delta` past `base`.
void await_count(const char* name, std::uint64_t base, std::uint64_t delta) {
  while (telemetry::counter_value(name) < base + delta)
    std::this_thread::yield();
}

std::shared_ptr<int> never_built() {
  throw std::logic_error("a cached key was built again");
}

TEST(LruCacheTest, WarmHitReturnsWhileAnotherKeyBuilds) {
  core::LruCache<int> cache(4);
  cache.put("warm", std::make_shared<int>(1));
  std::latch building(1);
  std::latch release(1);
  std::thread cold([&] {
    (void)cache.get_or_build("cold", [&] {
      building.count_down();
      release.wait();
      return std::make_shared<int>(2);
    });
  });
  building.wait();
  // The cold build is blocked until the hit has returned. The bounded wait
  // only turns a regression into a failure instead of a hang.
  auto hit = std::async(std::launch::async,
                        [&] { return cache.get_or_build("warm", never_built); });
  const bool returned =
      hit.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  release.count_down();
  cold.join();
  ASSERT_TRUE(returned) << "a warm hit waited for another key's build";
  EXPECT_EQ(*hit.get(), 1);
  EXPECT_EQ(*cache.find("cold"), 2);
}

TEST(LruCacheTest, RacingCallersOfOneColdKeyBuildOnce) {
  const TelemetryOn telemetry_on;
  constexpr int kCallers = 8;
  const char* hits = "lru_test.race_hits";
  const char* misses = "lru_test.race_misses";
  const std::uint64_t hits_before = telemetry::counter_value(hits);
  const std::uint64_t misses_before = telemetry::counter_value(misses);
  core::LruCache<int> cache(4, hits, misses);
  std::atomic<int> builds{0};
  std::latch start(kCallers);
  std::vector<std::shared_ptr<int>> got(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      got[c] = cache.get_or_build("cold", [&] {
        builds.fetch_add(1);
        // Hold the build until every other caller waits on it.
        if (telemetry::compiled())
          await_count(hits, hits_before, kCallers - 1);
        return std::make_shared<int>(7);
      });
    });
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const std::shared_ptr<int>& value : got)
    EXPECT_EQ(value.get(), got[0].get());
  EXPECT_EQ(cache.size(), 1u);
  if (telemetry::compiled()) {  // a waiter counts as a hit
    EXPECT_EQ(telemetry::counter_value(hits) - hits_before, kCallers - 1u);
    EXPECT_EQ(telemetry::counter_value(misses) - misses_before, 1u);
  }
}

TEST(LruCacheTest, ThrowingBuildReachesEveryWaiterAndCachesNothing) {
  const TelemetryOn telemetry_on;
  // Without counters the waiters cannot be held at the build; the single
  // caller's half of the contract is still checked.
  const int waiters = telemetry::compiled() ? 3 : 0;
  const char* hits = "lru_test.throw_hits";
  const std::uint64_t hits_before = telemetry::counter_value(hits);
  core::LruCache<int> cache(4, hits, "lru_test.throw_misses");
  std::atomic<int> builds{0};
  std::atomic<int> caught{0};
  std::latch building(1);
  const auto call = [&] {
    try {
      (void)cache.get_or_build("k", [&]() -> std::shared_ptr<int> {
        builds.fetch_add(1);
        building.count_down();
        await_count(hits, hits_before, static_cast<std::uint64_t>(waiters));
        throw std::runtime_error("characterization failed");
      });
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) == "characterization failed")
        caught.fetch_add(1);
    }
  };
  std::thread builder(call);
  building.wait();
  std::vector<std::thread> others;
  for (int w = 0; w < waiters; ++w) others.emplace_back(call);
  builder.join();
  for (std::thread& t : others) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(caught.load(), waiters + 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find("k"), nullptr);
  // Nothing was cached, so the next caller builds again.
  EXPECT_EQ(*cache.get_or_build("k", [] { return std::make_shared<int>(5); }),
            5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsTheLeastRecentlyUsedAndEvictedValuesStayAlive) {
  using Lot = const std::vector<int>;
  core::LruCache<Lot> cache(2);
  const auto a = cache.get_or_build(
      "a", [] { return std::make_shared<Lot>(4, 1); });
  EXPECT_EQ(cache.get_or_build("a", [] { return std::make_shared<Lot>(); }),
            a)
      << "a second lookup must hit";
  cache.put("b", std::make_shared<Lot>(5, 2));
  EXPECT_EQ(cache.find("a"), a);  // a is now the most recently used
  auto c = std::make_shared<Lot>(3, 3);
  cache.put("c", c);  // past capacity: evicts b, not a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_EQ(cache.find("a"), a);

  cache.put("d", std::make_shared<Lot>());  // evicts c
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("c"), nullptr);
  // The evicted value lives on through the pointer held here, and only
  // through it: the cache dropped its reference.
  EXPECT_EQ(c->size(), 3u);
  const std::weak_ptr<Lot> watch = c;
  c.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(LruCacheTest, PutReplacesSoEachKeyHasOneEntry) {
  core::LruCache<int> cache(2);
  const auto first = std::make_shared<int>(1);
  const auto second = std::make_shared<int>(2);
  cache.put("k", first);
  cache.put("k", second);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("k"), second);
  // The replaced key holds one slot, so a second key still fits beside it.
  cache.put("other", std::make_shared<int>(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("k"), second);
}

TEST(LruCacheTest, CountsEveryGetOrBuildAsOneHitOrOneMiss) {
  if (!telemetry::compiled())
    GTEST_SKIP() << "built with SIGTEST_TELEMETRY=OFF";
  const TelemetryOn telemetry_on;
  const char* hits = "lru_test.count_hits";
  const char* misses = "lru_test.count_misses";
  const std::uint64_t hits_before = telemetry::counter_value(hits);
  const std::uint64_t misses_before = telemetry::counter_value(misses);
  core::LruCache<int> cache(1, hits, misses);
  const auto one = [] { return std::make_shared<int>(1); };
  (void)cache.get_or_build("a", one);   // miss: builds
  (void)cache.get_or_build("a", one);   // hit
  (void)cache.get_or_build("a", one);   // hit
  EXPECT_NE(cache.find("a"), nullptr);  // find counts nothing
  cache.put("b", one());                // nor does put; evicts a
  (void)cache.get_or_build("a", one);   // miss: rebuilds
  EXPECT_EQ(telemetry::counter_value(hits) - hits_before, 2u);
  EXPECT_EQ(telemetry::counter_value(misses) - misses_before, 2u);
}

}  // namespace
