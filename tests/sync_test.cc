// Tests for eventcounts, the simulated spin lock, and the
// real-memory message queue.
#include <gtest/gtest.h>

#include "src/sync/eventcount.h"
#include "src/sync/message_queue.h"
#include "src/sync/spinlock.h"

namespace mks {
namespace {

TEST(SimSpinLock, UncontendedAcquireIsFree) {
  SimSpinLock lock;
  EXPECT_EQ(lock.Acquire(100), 0u);
  lock.Release(150);
  // The next acquirer arrives after the release point: still free.
  EXPECT_EQ(lock.Acquire(200), 0u);
  EXPECT_EQ(lock.contended(), 0u);
}

TEST(SimSpinLock, ContendedAcquireBurnsTheGap) {
  SimSpinLock lock;
  lock.Acquire(0);
  lock.Release(500);
  // An acquirer whose local clock is behind the release point spins the gap.
  EXPECT_EQ(lock.Acquire(120), 380u);
  EXPECT_EQ(lock.contended(), 1u);
  EXPECT_EQ(lock.total_spin(), 380u);
  EXPECT_EQ(lock.max_spin(), 380u);
  EXPECT_EQ(lock.handoffs(), 0u);  // plain mode: no handoff charges
}

TEST(Eventcount, AdvanceWakesSatisfiedWaiters) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  EXPECT_EQ(table.Read(ec), 0u);

  EXPECT_FALSE(table.AwaitOrEnqueue(ec, 1, EcWaiter::Vp(VpId(1))));
  EXPECT_FALSE(table.AwaitOrEnqueue(ec, 2, EcWaiter::Process(ProcessId(2))));
  EXPECT_EQ(table.WaiterCount(ec), 2u);

  std::vector<EcWaiter> woken;
  table.Advance(ec, &woken);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], EcWaiter::Vp(VpId(1)));
  EXPECT_EQ(table.WaiterCount(ec), 1u);

  table.Advance(ec, &woken);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], EcWaiter::Process(ProcessId(2)));
  EXPECT_EQ(table.WaiterCount(ec), 0u);
}

TEST(Eventcount, AwaitAlreadySatisfiedDoesNotEnqueue) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  std::vector<EcWaiter> woken;
  table.Advance(ec, &woken);
  EXPECT_TRUE(table.AwaitOrEnqueue(ec, 1, EcWaiter::Vp(VpId(1))));
  EXPECT_EQ(table.WaiterCount(ec), 0u);
}

TEST(Eventcount, BroadcastWakesAllWaitersAtSameTarget) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  for (uint16_t vp = 0; vp < 5; ++vp) {
    EXPECT_FALSE(table.AwaitOrEnqueue(ec, 1, EcWaiter::Vp(VpId(vp))));
  }
  // "Notifies all processes that have been waiting for this event."
  std::vector<EcWaiter> woken;
  table.Advance(ec, &woken);
  ASSERT_EQ(woken.size(), 5u);
  for (uint16_t vp = 0; vp < 5; ++vp) {
    EXPECT_EQ(woken[vp], EcWaiter::Vp(VpId(vp)));  // in registration order
  }
}

TEST(Eventcount, CancelWaitRemovesWaiter) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  EXPECT_FALSE(table.AwaitOrEnqueue(ec, 1, EcWaiter::Vp(VpId(3))));
  EXPECT_FALSE(table.AwaitOrEnqueue(ec, 1, EcWaiter::Process(ProcessId(3))));
  // Same id, other kind: only the named waiter goes.
  table.CancelWait(ec, EcWaiter::Vp(VpId(3)));
  EXPECT_EQ(table.WaiterCount(ec), 1u);
  std::vector<EcWaiter> woken;
  table.Advance(ec, &woken);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], EcWaiter::Process(ProcessId(3)));
}

TEST(Eventcount, ValuesAreMonotonic) {
  Metrics metrics;
  EventcountTable table(&metrics);
  const EventcountId ec = table.Create();
  uint64_t last = table.Read(ec);
  std::vector<EcWaiter> woken;
  for (int i = 0; i < 100; ++i) {
    table.Advance(ec, &woken);
    EXPECT_EQ(table.Read(ec), last + 1);
    last = table.Read(ec);
  }
}

TEST(RealMemoryQueue, FifoRoundTrip) {
  std::vector<uint64_t> storage(RealMemoryQueue::kHeaderWords +
                                4 * RealMemoryQueue::kSlotWords);
  RealMemoryQueue queue{std::span<uint64_t>(storage)};
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_TRUE(queue.empty());
  ASSERT_TRUE(queue.Push(UpwardMessage{ProcessId(7), 1, 42}).ok());
  ASSERT_TRUE(queue.Push(UpwardMessage{ProcessId(8), 2, 43}).ok());
  auto first = queue.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->dest.value, 7u);
  EXPECT_EQ(first->payload, 42u);
  auto second = queue.Pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->dest.value, 8u);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(RealMemoryQueue, OverflowCountsDropsNeverBlocks) {
  std::vector<uint64_t> storage(RealMemoryQueue::kHeaderWords +
                                2 * RealMemoryQueue::kSlotWords);
  RealMemoryQueue queue{std::span<uint64_t>(storage)};
  ASSERT_TRUE(queue.Push(UpwardMessage{ProcessId(1), 0, 0}).ok());
  ASSERT_TRUE(queue.Push(UpwardMessage{ProcessId(2), 0, 0}).ok());
  EXPECT_EQ(queue.Push(UpwardMessage{ProcessId(3), 0, 0}).code(), Code::kResourceExhausted);
}

TEST(RealMemoryQueue, WrapsAroundManyTimes) {
  std::vector<uint64_t> storage(RealMemoryQueue::kHeaderWords +
                                3 * RealMemoryQueue::kSlotWords);
  RealMemoryQueue queue{std::span<uint64_t>(storage)};
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.Push(UpwardMessage{ProcessId(i), i, i * 2}).ok());
    auto msg = queue.Pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->dest.value, i);
    EXPECT_EQ(msg->payload, i * 2u);
  }
}

TEST(RealMemoryQueue, ContentLivesInTheBackingWords) {
  // The residency claim: every message is literally words in the span.
  std::vector<uint64_t> storage(RealMemoryQueue::kHeaderWords +
                                2 * RealMemoryQueue::kSlotWords);
  RealMemoryQueue queue{std::span<uint64_t>(storage)};
  ASSERT_TRUE(queue.Push(UpwardMessage{ProcessId(9), 5, 1234}).ok());
  EXPECT_EQ(storage[RealMemoryQueue::kHeaderWords], 9u);
  EXPECT_EQ(storage[RealMemoryQueue::kHeaderWords + 2], 1234u);
}

}  // namespace
}  // namespace mks
