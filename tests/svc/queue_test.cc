#include "svc/queue.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace blameit::svc {
namespace {

TEST(BoundedQueueTest, FifoOrderAndPushStatus) {
  BoundedQueue<int> queue{4};
  EXPECT_EQ(queue.push(1), PushStatus::Ok);
  EXPECT_EQ(queue.push(2), PushStatus::Ok);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.high_water(), 2u);
  EXPECT_EQ(queue.blocked_pushes(), 0u);
}

TEST(BoundedQueueTest, PopDrainsQueuedItemsAfterClose) {
  BoundedQueue<int> queue{4};
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_TRUE(queue.closed());
  // Items queued before close() are still delivered, in order...
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  // ...then pop reports exhaustion instead of blocking forever.
  EXPECT_EQ(queue.pop(), std::nullopt);
  // New pushes are refused and counted.
  EXPECT_EQ(queue.push(3), PushStatus::Closed);
  EXPECT_EQ(queue.dropped_pushes(), 1u);
}

TEST(BoundedQueueTest, CloseWakesBlockedPush) {
  BoundedQueue<int> queue{1};
  ASSERT_EQ(queue.push(1), PushStatus::Ok);
  PushStatus status = PushStatus::Ok;
  std::thread producer{[&] { status = queue.push(2); }};
  // Let the producer reach the full-queue wait, then close underneath it.
  while (queue.blocked_pushes() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.close();
  producer.join();
  EXPECT_EQ(status, PushStatus::Closed);
  EXPECT_EQ(queue.dropped_pushes(), 1u);
  EXPECT_EQ(queue.blocked_pushes(), 1u);
  // The item queued before close survives.
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> queue{1};
  std::optional<int> got{-1};
  std::thread consumer{[&] { got = queue.pop(); }};
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(BoundedQueueTest, BackpressureReportsOkAfterBlocking) {
  BoundedQueue<int> queue{1};
  ASSERT_EQ(queue.push(1), PushStatus::Ok);
  PushStatus status = PushStatus::Ok;
  std::thread producer{[&] { status = queue.push(2); }};
  while (queue.blocked_pushes() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.pop(), 1);  // frees a slot, waking the producer
  producer.join();
  EXPECT_EQ(status, PushStatus::OkAfterBlocking);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.blocked_pushes(), 1u);
  EXPECT_EQ(queue.dropped_pushes(), 0u);
}

TEST(BoundedQueueTest, CloseIsIdempotent) {
  BoundedQueue<int> queue{2};
  queue.close();
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.pop(), std::nullopt);
}

}  // namespace
}  // namespace blameit::svc
