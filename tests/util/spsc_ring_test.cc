#include "util/spsc_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace blameit::util {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>{1}.capacity(), 2u);
  EXPECT_EQ(SpscRing<int>{2}.capacity(), 2u);
  EXPECT_EQ(SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(SpscRing<int>{64}.capacity(), 64u);
  EXPECT_EQ(SpscRing<int>{65}.capacity(), 128u);
}

TEST(SpscRingTest, FifoSingleThread) {
  SpscRing<int> ring{8};
  for (int round = 0; round < 3; ++round) {
    int values[5];
    for (int i = 0; i < 5; ++i) values[i] = round * 10 + i;
    EXPECT_EQ(ring.try_push(values, 5), 5u);
    int out[8] = {};
    EXPECT_EQ(ring.try_pop(out, 8), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], round * 10 + i);
  }
  int out;
  EXPECT_EQ(ring.try_pop(&out, 1), 0u);  // drained
}

TEST(SpscRingTest, FullAndEmptyBoundary) {
  SpscRing<int> ring{4};
  int values[6] = {1, 2, 3, 4, 5, 6};
  // Only capacity items fit; the rest are refused, not overwritten.
  EXPECT_EQ(ring.try_push(values, 6), 4u);
  EXPECT_EQ(ring.try_push(values, 1), 0u);  // full
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.high_water(), 4u);

  int out[6] = {};
  EXPECT_EQ(ring.try_pop(out, 6), 4u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(ring.try_pop(out, 1), 0u);  // empty
  EXPECT_EQ(ring.size(), 0u);
}

// Sequence numbers are monotone u64s; index math must survive many laps
// around a tiny ring (the wraparound case).
TEST(SpscRingTest, BulkAcrossWraparound) {
  SpscRing<std::uint64_t> ring{4};
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::uint64_t buf[3];
  for (int i = 0; i < 1000; ++i) {
    const std::size_t want = 1 + static_cast<std::size_t>(i % 3);
    for (std::size_t k = 0; k < want; ++k) buf[k] = next_push + k;
    const std::size_t pushed = ring.try_push(buf, want);
    next_push += pushed;
    std::uint64_t out[3];
    const std::size_t popped = ring.try_pop(out, 3);
    for (std::size_t k = 0; k < popped; ++k) {
      ASSERT_EQ(out[k], next_pop + k);
    }
    next_pop += popped;
  }
  EXPECT_EQ(ring.pushed(), next_push);
  EXPECT_EQ(ring.popped(), next_pop);
}

TEST(SpscRingTest, PushAllBlocksUntilConsumerDrains) {
  SpscRing<int> ring{2, /*spin_limit=*/4};
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  std::thread consumer{[&] {
    int out[8];
    std::size_t seen = 0;
    while (seen < items.size()) {
      const std::size_t n = ring.pop_wait(out, 8);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], static_cast<int>(seen + i));
      }
      seen += n;
    }
  }};
  // 64 items through a 2-slot ring: the producer must stall and resume many
  // times, but every item arrives in order.
  const auto status = ring.push_all(items.data(), items.size());
  EXPECT_NE(status, RingPush::Closed);
  consumer.join();
  EXPECT_EQ(ring.pushed(), items.size());
  EXPECT_EQ(ring.popped(), items.size());
}

TEST(SpscRingTest, CloseUnblocksParkedProducerAndCountsDrops) {
  SpscRing<int> ring{2, /*spin_limit=*/1};
  int fill[2] = {1, 2};
  ASSERT_EQ(ring.try_push(fill, 2), 2u);  // ring now full, nobody popping
  RingPush status = RingPush::Ok;
  std::thread producer{[&] {
    int more[3] = {3, 4, 5};
    status = ring.push_all(more, 3);  // parks: ring is full
  }};
  // Give the producer time to reach the parked state, then close.
  while (ring.producer_parks() == 0) std::this_thread::yield();
  ring.close();
  producer.join();
  EXPECT_EQ(status, RingPush::Closed);
  EXPECT_EQ(ring.dropped_after_close(), 3u);  // the whole undelivered batch
  // Already-published items remain poppable after close.
  int out[4];
  EXPECT_EQ(ring.try_pop(out, 4), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(SpscRingTest, CloseUnblocksParkedConsumer) {
  SpscRing<int> ring{4, /*spin_limit=*/1};
  std::size_t popped = 0;
  std::thread consumer{[&] {
    int out[4];
    popped = ring.pop_wait(out, 4);  // parks: ring is empty
  }};
  while (ring.consumer_parks() == 0) std::this_thread::yield();
  ring.close();
  consumer.join();
  EXPECT_EQ(popped, 0u);
  EXPECT_TRUE(ring.closed());
}

TEST(SpscRingTest, WakeMakesPopWaitReturnZeroOnce) {
  SpscRing<int> ring{4};
  ring.wake();
  int out[4];
  // The pending wake token is consumed by one pop_wait...
  EXPECT_EQ(ring.pop_wait(out, 4), 0u);
  // ...and data flows normally afterwards.
  int v = 7;
  ASSERT_EQ(ring.try_push(&v, 1), 1u);
  EXPECT_EQ(ring.pop_wait(out, 4), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(SpscRingTest, WakeUnparksConsumer) {
  SpscRing<int> ring{4, /*spin_limit=*/1};
  std::size_t result = 99;
  std::thread consumer{[&] {
    int out[4];
    result = ring.pop_wait(out, 4);
  }};
  while (ring.consumer_parks() == 0) std::this_thread::yield();
  ring.wake();
  consumer.join();
  EXPECT_EQ(result, 0u);  // woke with no data: the side-channel signal
}

TEST(SpscRingTest, PushAfterCloseDropsAndCounts) {
  SpscRing<int> ring{4};
  ring.close();
  int values[3] = {1, 2, 3};
  EXPECT_EQ(ring.try_push(values, 3), 0u);
  EXPECT_EQ(ring.push_all(values, 3), RingPush::Closed);
  EXPECT_EQ(ring.dropped_after_close(), 3u);
  EXPECT_EQ(ring.pushed(), 0u);
}

// Two threads hammer the ring with small random-ish batches; every item
// must arrive exactly once, in order. Run under TSan in CI, this is the
// memory-ordering proof for the acquire/release protocol.
TEST(SpscRingTest, ConcurrentTransferIsLosslessAndOrdered) {
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring{64, /*spin_limit=*/16};
  std::thread consumer{[&] {
    std::uint64_t out[37];
    std::uint64_t expect = 0;
    while (expect < kItems) {
      const std::size_t n = ring.pop_wait(out, 37);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expect + i);
      }
      expect += n;
    }
  }};
  std::uint64_t buf[29];
  std::uint64_t next = 0;
  while (next < kItems) {
    const std::size_t want =
        std::min<std::uint64_t>(1 + next % 29, kItems - next);
    for (std::size_t i = 0; i < want; ++i) buf[i] = next + i;
    ASSERT_NE(ring.push_all(buf, want), RingPush::Closed);
    next += want;
  }
  consumer.join();
  EXPECT_EQ(ring.pushed(), kItems);
  EXPECT_EQ(ring.popped(), kItems);
  EXPECT_GE(ring.high_water(), 1u);
  EXPECT_LE(ring.high_water(), ring.capacity());
}

// ---- in-place consumer: peek / consume ----

TEST(SpscRingTest, PeekStopsAtWrapPointAndNextPeekReturnsRest) {
  SpscRing<int> ring{8};
  int values[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(ring.try_push(values, 6), 6u);
  int out[6];
  ASSERT_EQ(ring.try_pop(out, 6), 6u);  // head and tail now at slot 6
  ASSERT_EQ(ring.try_push(values, 5), 5u);  // occupies slots 6, 7, 0, 1, 2

  const auto first = ring.peek();
  ASSERT_EQ(first.size(), 2u);  // slots 6 and 7: stops at the wrap point
  EXPECT_EQ(first[0], 0);
  EXPECT_EQ(first[1], 1);
  // Peeking again without consuming shows the same span.
  EXPECT_EQ(ring.peek().data(), first.data());
  ring.consume(first.size());

  const auto rest = ring.peek();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 2);
  EXPECT_EQ(rest[2], 4);
  ring.consume(rest.size());
  EXPECT_TRUE(ring.peek().empty());
  EXPECT_EQ(ring.popped(), 11u);
}

TEST(SpscRingTest, PeekHonorsMaxAndPartialConsume) {
  SpscRing<int> ring{8};
  int values[5] = {10, 11, 12, 13, 14};
  ASSERT_EQ(ring.try_push(values, 5), 5u);
  const auto span = ring.peek(3);
  ASSERT_EQ(span.size(), 3u);
  ring.consume(1);  // release only the first item
  const auto next = ring.peek();
  ASSERT_EQ(next.size(), 4u);
  EXPECT_EQ(next[0], 11);
  EXPECT_EQ(ring.size(), 4u);
}

TEST(SpscRingTest, ConsumeFreesSpaceForParkedProducer) {
  SpscRing<int> ring{2, /*spin_limit=*/1};
  int fill[2] = {1, 2};
  ASSERT_EQ(ring.try_push(fill, 2), 2u);  // full
  RingPush status = RingPush::Closed;
  std::thread producer{[&] {
    int more[2] = {3, 4};
    status = ring.push_all(more, 2);  // parks: ring is full
  }};
  while (ring.producer_parks() == 0) std::this_thread::yield();
  const auto span = ring.peek();
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0], 1);
  EXPECT_EQ(span[1], 2);
  ring.consume(span.size());
  producer.join();
  EXPECT_EQ(status, RingPush::OkAfterParking);
  int out[2];
  ASSERT_EQ(ring.try_pop(out, 2), 2u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 4);
}

TEST(SpscRingTest, CloseWhileConsumerHoldsSpan) {
  SpscRing<int> ring{4};
  int values[3] = {7, 8, 9};
  ASSERT_EQ(ring.try_push(values, 3), 3u);
  const auto span = ring.peek();
  ASSERT_EQ(span.size(), 3u);
  ring.close();
  // The held span stays readable, and consuming after close is fine.
  EXPECT_EQ(span[0], 7);
  EXPECT_EQ(span[2], 9);
  ring.consume(span.size());
  EXPECT_EQ(ring.popped(), 3u);
  EXPECT_TRUE(ring.peek_wait().empty());  // closed and drained: no wait
  EXPECT_EQ(ring.try_push(values, 1), 0u);
}

TEST(SpscRingTest, WakeMakesWaitingPeekReturnEmptyOnce) {
  SpscRing<int> ring{4, /*spin_limit=*/1};
  // A peek parked on an empty ring returns an empty span when woken...
  std::size_t woken_size = 99;
  std::thread consumer{[&] { woken_size = ring.peek_wait().size(); }};
  while (ring.consumer_parks() == 0) std::this_thread::yield();
  ring.wake();
  consumer.join();
  EXPECT_EQ(woken_size, 0u);
  // ...and the wake is spent: the next peek parks until data arrives.
  const std::uint64_t parks = ring.consumer_parks();
  std::atomic<bool> returned{false};
  std::size_t next_size = 99;
  std::thread waiter{[&] {
    next_size = ring.peek_wait().size();
    returned = true;
  }};
  while (ring.consumer_parks() == parks && !returned) {
    std::this_thread::yield();
  }
  int v = 5;
  EXPECT_EQ(ring.try_push(&v, 1), 1u);
  waiter.join();
  EXPECT_EQ(next_size, 1u);
}

// The worker-style consumer: peek a span, read it in place, consume it.
// Every item must arrive exactly once, in order; under TSan this checks
// that consume() orders the in-place reads before the producer's reuse.
// A consumer that sees a wrong item closes the ring, so the producer stops
// instead of parking forever.
TEST(SpscRingTest, ConcurrentPeekConsumeIsLosslessAndOrdered) {
  constexpr std::uint64_t kItems = 200000;
  SpscRing<std::uint64_t> ring{64, /*spin_limit=*/16};
  std::thread consumer{[&] {
    std::uint64_t expect = 0;
    while (expect < kItems) {
      const auto span = ring.peek_wait(41);
      for (std::size_t i = 0; i < span.size(); ++i) {
        if (span[i] != expect + i) {
          ADD_FAILURE() << "item " << expect + i << " read as " << span[i];
          ring.close();
          return;
        }
      }
      expect += span.size();
      ring.consume(span.size());
    }
  }};
  std::uint64_t buf[29];
  std::uint64_t next = 0;
  while (next < kItems) {
    const std::size_t want =
        std::min<std::uint64_t>(1 + next % 29, kItems - next);
    for (std::size_t i = 0; i < want; ++i) buf[i] = next + i;
    if (ring.push_all(buf, want) == RingPush::Closed) break;
    next += want;
  }
  consumer.join();
  EXPECT_EQ(ring.pushed(), kItems);
  EXPECT_EQ(ring.popped(), kItems);
}

}  // namespace
}  // namespace blameit::util
