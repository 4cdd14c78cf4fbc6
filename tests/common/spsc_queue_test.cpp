// The SPSC ring underneath the epoch handoff and the pq_serve ingest path:
// strict FIFO order, a hard capacity bound (full ring refuses, never
// grows), close semantics that let the consumer drain the remainder, and a
// producer/consumer thread pair moving a six-figure element count without
// loss or reordering (the TSan job runs this too).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"

namespace pq {
namespace {

using namespace std::chrono_literals;

TEST(SpscQueue, FifoOrderSingleThread) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.size(), 5u);
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, CapacityIsAHardBound) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(99));  // full: refuse, never grow
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.peak_depth(), 4u);
  int v = -1;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.try_push(4));  // one slot freed, one accepted
  EXPECT_EQ(q.peak_depth(), 4u);
}

// A power-of-two capacity fills every slot of the ring: many laps of
// fill-to-full then drain must keep the bound exact and the order FIFO.
TEST(SpscQueue, FullLapsOfAnExactPowerOfTwoRing) {
  SpscQueue<int> q(4);
  int next_in = 0;
  int next_out = 0;
  for (int lap = 0; lap < 1000; ++lap) {
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(int{next_in++}));
    ASSERT_FALSE(q.try_push(-1));
    ASSERT_EQ(q.size(), 4u);
    // Half a drain, a refill of the freed slots, then the rest.
    int v = -1;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(q.try_pop(v));
      ASSERT_EQ(v, next_out++);
    }
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(q.try_push(int{next_in++}));
    ASSERT_FALSE(q.try_push(-1));
    while (q.try_pop(v)) ASSERT_EQ(v, next_out++);
    ASSERT_TRUE(q.empty());
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.peak_depth(), 4u);
}

// Slots are raw storage: every element a push builds is destroyed once,
// by its pop or by the queue's destructor.
TEST(SpscQueue, DestroysEveryElementItBuilt) {
  struct Counted {
    explicit Counted(int* live) : live_(live) { ++*live_; }
    Counted(Counted&& o) noexcept : live_(o.live_) { ++*live_; }
    Counted& operator=(Counted&& o) noexcept {
      live_ = o.live_;
      return *this;
    }
    ~Counted() { --*live_; }
    int* live_;
  };
  int live = 0;
  {
    SpscQueue<Counted> q(4);
    for (int lap = 0; lap < 3; ++lap) {
      for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(Counted(&live)));
      EXPECT_EQ(live, 4);
      Counted out(&live);
      for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_pop(out));
      EXPECT_EQ(live, 1);  // only `out`
    }
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(Counted(&live)));
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);  // the destructor destroyed the three left in it
}

// The producer works from a stale copy of the tail; the peak it reports
// must still be a depth the ring really held, not that copy's bound.
TEST(SpscQueue, PeakIsTheDeepestDepthHeld) {
  SpscQueue<int> q(64);
  int v = -1;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(int{i}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(q.peak_depth(), 3u);
  for (int i = 0; i < 500; ++i) {  // depth never above 1
    ASSERT_TRUE(q.try_push(int{i}));
    ASSERT_TRUE(q.try_pop(v));
    ASSERT_EQ(v, i);
  }
  EXPECT_EQ(q.peak_depth(), 3u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(int{i}));
  EXPECT_EQ(q.peak_depth(), 5u);
}

TEST(SpscQueue, CloseLetsConsumerDrain) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.drained());
  EXPECT_FALSE(q.try_push(3));
  EXPECT_FALSE(q.push_wait(3));  // returns, does not block forever
  int v = -1;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop_wait(v, 1000us));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.drained());
  EXPECT_FALSE(q.pop_wait(v, 1000us));  // closed + empty: immediate false
}

TEST(SpscQueue, PopWaitTimesOutOnEmptyOpenQueue) {
  SpscQueue<int> q(4);
  int v = -1;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_wait(v, 2000us));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 1ms);
}

TEST(SpscQueue, ConcurrentHandoffKeepsOrderAndCount) {
  constexpr std::uint64_t kCount = 200'000;
  SpscQueue<std::uint64_t> q(64);  // small ring: constant backpressure
  std::thread producer([&] {
    bool all_pushed = true;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      all_pushed = q.push_wait(std::uint64_t{i}) && all_pushed;
    }
    q.close();
    EXPECT_TRUE(all_pushed);
  });
  std::uint64_t expect = 0;
  std::uint64_t v = 0;
  while (q.pop_wait(v, std::chrono::microseconds{200'000})) {
    ASSERT_EQ(v, expect);
    ++expect;
  }
  producer.join();
  EXPECT_EQ(expect, kCount);
  EXPECT_TRUE(q.drained());
  EXPECT_GE(q.peak_depth(), 1u);
  EXPECT_LE(q.peak_depth(), q.capacity());
}

}  // namespace
}  // namespace pq
