#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.h"

namespace tempriv::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (auto event = q.pop()) event->action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PopOnEmptyReturnsNullopt) {
  EventQueue q;
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{9999}));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(id));
  while (auto event = q.pop()) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(i, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, ManyInterleavedCancelsStayConsistent) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i % 37), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 500u);
  std::size_t popped = 0;
  double last = -1.0;
  while (auto event = q.pop()) {
    EXPECT_GE(event->at, last);
    last = event->at;
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
}

TEST(EventQueue, ClearResetsPoolForReuse) {
  // Regression: clear() must reset the slot pool and tombstone state so the
  // queue is immediately reusable — schedule -> clear -> reschedule.
  EventQueue q;
  std::vector<EventId> old_ids;
  for (int i = 0; i < 64; ++i) {
    old_ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  // Leave tombstones in the heap so clear() also has to discard those.
  for (std::size_t i = 0; i < old_ids.size(); i += 3) q.cancel(old_ids[i]);
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);

  int fired = 0;
  q.schedule(7.0, [&] { ++fired; });
  const EventId later = q.schedule(9.0, [&] { ++fired; });
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  // Handles from before clear() are dead and must not cancel the new
  // events now occupying their recycled slots.
  for (const EventId id : old_ids) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(later));
  auto event = q.pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->at, 7.0);
  event->action();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, ReservePreallocatesSlots) {
  EventQueue q;
  q.reserve(2500);
  EXPECT_EQ(q.slot_count(), 0u);  // reserve allocates chunks, not occupants
  std::vector<EventId> ids;
  for (int i = 0; i < 2500; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  EXPECT_EQ(q.size(), 2500u);
  EXPECT_EQ(q.slot_count(), 2500u);
  double last = -1.0;
  while (auto event = q.pop()) {
    EXPECT_GT(event->at, last);
    last = event->at;
  }
}

TEST(EventQueue, StaleHandleNeverCancelsSlotReuser) {
  // Fire an event, then recycle its pool slot many times; the original
  // handle must stay dead (sequence numbers make handles globally unique).
  EventQueue q;
  const EventId original = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_FALSE(q.cancel(original));
  for (int round = 0; round < 100; ++round) {
    const EventId reuse = q.schedule(1.0, [] {});
    EXPECT_NE(reuse, original);
    EXPECT_FALSE(q.cancel(original));
    ASSERT_TRUE(q.pop().has_value());
  }
}

TEST(EventQueue, EventIdsAreUnique) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(1.0, [] {});
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(EventId{}.valid());
}

// Equal-time cohorts ("batches") through dispatch_head: one event per
// call, insertion order, tombstones skipped wherever they surface.

TEST(EventQueueBatch, DrainsEqualTimeCohortInInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  const EventId a = queue.schedule(5.0, [&] { order.push_back(1); });
  const EventId b = queue.schedule(5.0, [&] { order.push_back(2); });
  queue.schedule(7.0, [&] { order.push_back(99); });
  const EventId c = queue.schedule(5.0, [&] { order.push_back(3); });

  std::vector<EventId> ids;
  const auto run = [&](Time at, EventId id, EventQueue::Callback& action) {
    EXPECT_DOUBLE_EQ(at, 5.0);
    ids.push_back(id);
    action();
  };
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.dispatch_head(run));
  EXPECT_EQ(ids, (std::vector<EventId>{a, b, c}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // The 7.0 event is untouched.
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue.next_time(), 7.0);
}

TEST(EventQueueBatch, SkipsTombstonesInsideEqualTimeRun) {
  EventQueue queue;
  const EventId a = queue.schedule(3.0, [] {});
  const EventId b = queue.schedule(3.0, [] {});
  const EventId c = queue.schedule(3.0, [] {});
  // Cancel the middle event while it is buried in the heap.
  EXPECT_TRUE(queue.cancel(b));
  std::vector<EventId> ids;
  while (queue.dispatch_head(
      [&](Time, EventId id, EventQueue::Callback&) { ids.push_back(id); })) {
  }
  EXPECT_EQ(ids, (std::vector<EventId>{a, c}));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.tombstones_swept(), 1u);
}

TEST(EventQueueBatch, CancelOfHeapEventWhileBatchOutstandingSweepsHead) {
  // While an event is being dispatched its slot is still claimed, so heap
  // size and live count diverge; a cancel of the in-heap head from inside
  // the callback must still be swept so next_time() stays truthful.
  EventQueue queue;
  queue.schedule(1.0, [] {});
  const EventId later = queue.schedule(2.0, [] {});
  queue.schedule(3.0, [] {});
  ASSERT_TRUE(queue.dispatch_head([&](Time, EventId, EventQueue::Callback&) {
    EXPECT_TRUE(queue.cancel(later));
    EXPECT_DOUBLE_EQ(queue.next_time(), 3.0);
  }));
  const auto event = queue.pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_DOUBLE_EQ(event->at, 3.0);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TombstonesSweptCountsEveryCancelOnceDrained) {
  // Cancel-heavy churn over both lanes: records cancelled at a lane head
  // are swept at once, buried ones when they surface; a drained queue has
  // swept exactly one record per successful cancel.
  RandomStream rng(5);
  EventQueue q;
  std::vector<EventId> ids;
  std::uint64_t cancelled = 0;
  double fifo_at = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      ids.push_back(q.schedule(rng.uniform(0.0, 50.0), [] {}));
      fifo_at += rng.uniform(0.0, 1.0);
      ids.push_back(q.schedule_monotone(fifo_at, [] {}));
    }
    for (int i = 0; i < 6; ++i) {
      cancelled += q.cancel(ids[rng.uniform_index(ids.size())]);
    }
    for (int i = 0; i < 4; ++i) q.pop();
    EXPECT_LE(q.tombstones_swept(), cancelled);
  }
  while (q.pop()) {
  }
  EXPECT_GT(cancelled, 500u);
  EXPECT_EQ(q.tombstones_swept(), cancelled);

  // clear() discards records without sweeping them.
  const EventId buried = q.schedule(2.0, [] {});
  q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(buried));
  q.clear();
  EXPECT_EQ(q.tombstones_swept(), cancelled);
}

TEST(EventQueue, EveryScheduledEventRunsOrIsCancelled) {
  // Event conservation over both lanes: FIFO appends, FIFO calls diverted
  // to the heap (times below the ring's tail), heap schedules and cancels,
  // drained through dispatch_head and pop. Once empty, the lane counts add
  // up to the events run plus the tombstones swept.
  RandomStream rng(17);
  EventQueue q;
  std::vector<EventId> ids;
  std::uint64_t heap_calls = 0, monotone_calls = 0, dispatched = 0;
  std::size_t peak = 0;
  double fifo_at = 0.0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 6; ++i) {
      ids.push_back(q.schedule(rng.uniform(0.0, 80.0), [] {}));
      ++heap_calls;
      // Every fourth monotone time dips below the tail and diverts.
      const double at = i % 4 == 3 ? fifo_at * rng.uniform01()
                                   : (fifo_at += rng.uniform(0.0, 1.0));
      ids.push_back(q.schedule_monotone(at, [] {}));
      ++monotone_calls;
      peak = std::max(peak, q.size());
    }
    for (int i = 0; i < 4; ++i) q.cancel(ids[rng.uniform_index(ids.size())]);
    for (int i = 0; i < 3; ++i) {
      dispatched += q.dispatch_head([](Time, EventId, EventQueue::Callback&) {});
    }
    if (q.pop()) ++dispatched;
  }
  while (q.dispatch_head([](Time, EventId, EventQueue::Callback&) {})) {
    ++dispatched;
  }

  EXPECT_GT(q.fifo_diverted(), 100u);
  EXPECT_GT(q.tombstones_swept(), 500u);
  EXPECT_EQ(q.scheduled_heap(), heap_calls + q.fifo_diverted());
  EXPECT_EQ(q.scheduled_fifo(), monotone_calls - q.fifo_diverted());
  EXPECT_EQ(q.scheduled_heap() + q.scheduled_fifo(),
            dispatched + q.tombstones_swept());
  EXPECT_EQ(q.peak_size(), peak);
}

}  // namespace
}  // namespace tempriv::sim
