// Unit tests for the bounded queue (core/pipeline.hpp): FIFO order, close
// and drain, backpressure on a full queue, typed rejection after close, and
// the non-blocking try_push outcomes.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using stf::core::BoundedQueue;
using stf::core::PushResult;

TEST(BoundedQueue, DeliversItemsInFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.push(i), PushResult::kAccepted);
  EXPECT_EQ(q.size(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

TEST(BoundedQueue, ClosedQueueDrainsThenReturnsFalse) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  q.close();
  EXPECT_EQ(q.push(3), PushResult::kClosed);  // typed, not a silent drop
  int v = 0;
  ASSERT_TRUE(q.pop(v));  // remaining items still hand out
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // closed AND drained
}

TEST(BoundedQueue, FullQueueBlocksProducerUntilConsumed) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.push(0), PushResult::kAccepted);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(2), PushResult::kAccepted);  // blocks: queue is full
    third_pushed = true;
  });
  // The producer must not complete while the queue stays full. (A short
  // sleep cannot prove blocking forever, but a regression to non-blocking
  // push fails this reliably.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 0);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_GE(q.blocked_pushes(), 1u);
}

TEST(BoundedQueue, CloseReleasesBlockedProducer) {
  BoundedQueue<int> q(1);
  EXPECT_EQ(q.push(0), PushResult::kAccepted);
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    // Blocked on full, released by close -- and the failure is typed.
    EXPECT_EQ(q.push(1), PushResult::kClosed);
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, CloseWakesEveryBlockedProducerWithTypedRejection) {
  // Regression for the shutdown edge: several producers parked in push()
  // on a full queue must ALL wake on close() and ALL get kClosed back;
  // none may hang and none may silently drop its value.
  BoundedQueue<int> q(1);
  EXPECT_EQ(q.push(0), PushResult::kAccepted);
  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, &rejected, p] {
      if (q.push(100 + p) == PushResult::kClosed) rejected.fetch_add(1);
    });
  // Give the producers a moment to park (cannot prove blocking, but a
  // regression to lost wakeups hangs this join reliably).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);
  // The one pre-close item still drains; nothing pushed after close landed.
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(q.pop(v));
}

TEST(BoundedQueue, RejectedAfterCloseSurfacesInTelemetry) {
  namespace telemetry = stf::core::telemetry;
  telemetry::set_enabled(true);
  telemetry::reset();
  BoundedQueue<int> q(2);
  q.close();
  EXPECT_EQ(q.push(1), PushResult::kClosed);
  EXPECT_EQ(q.try_push(2), PushResult::kClosed);
  telemetry::set_enabled(false);
  EXPECT_EQ(telemetry::counter("pipeline.rejected_after_close").value(), 2u);
  telemetry::reset();
}

TEST(BoundedQueue, TryPushNeverBlocksAndTypesEveryOutcome) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.try_push(0), PushResult::kAccepted);
  EXPECT_EQ(q.try_push(1), PushResult::kAccepted);
  EXPECT_EQ(q.try_push(2), PushResult::kFull);  // would have blocked
  int v = -1;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(q.try_push(3), PushResult::kAccepted);
  q.close();
  EXPECT_EQ(q.try_push(4), PushResult::kClosed);
}

}  // namespace
