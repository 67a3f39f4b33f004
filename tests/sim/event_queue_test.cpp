#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/random.h"

#include "pop_event.h"

namespace tempriv::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (auto event = pop(q)) event->action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PopOnEmptyReturnsNullopt) {
  EventQueue q;
  EXPECT_FALSE(pop(q).has_value());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleRejectsInvalidId) {
  EventQueue q;
  EXPECT_THROW(q.reschedule(EventId{}, 1.0, q.reserve_seq()),
               std::invalid_argument);
  EXPECT_THROW(q.reschedule(EventId{9999}, 1.0, q.reserve_seq()),
               std::invalid_argument);
}

TEST(EventQueue, RescheduleAfterPopThrows) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  ASSERT_TRUE(pop(q).has_value());
  EXPECT_THROW(q.reschedule(id, 2.0, q.reserve_seq()), std::invalid_argument);
}

TEST(EventQueue, RescheduleMiddleMovesOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  const EventId moved = q.reschedule(id, 4.0, q.reserve_seq());
  EXPECT_NE(moved, id);
  EXPECT_EQ(q.size(), 3u);
  std::vector<EventId> ids;
  while (auto event = pop(q)) {
    ids.push_back(event->id);
    event->action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(ids.back(), moved);
}

TEST(EventQueue, ReservedSeqOrdersAsIfScheduledAtReservation) {
  // A number reserved before a later schedule() ties ahead of it at equal
  // times, whether it keys a new event or a re-keyed one.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t early = q.reserve_seq();
  q.schedule(5.0, [&] { order.push_back(2); });
  const EventId a = q.schedule(9.0, early, [&] { order.push_back(1); });
  q.schedule(5.0, [&] { order.push_back(3); });
  q.reschedule(a, 5.0, early);  // same number, new time
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleRejectsUnreservedSeq) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, std::uint64_t{0}, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(1.0, std::uint64_t{1}, [] {}), std::invalid_argument);
  const EventId id = q.schedule(1.0, q.reserve_seq(), [] {});
  EXPECT_THROW(q.reschedule(id, 1.0, 99), std::invalid_argument);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RearmFromTheRunningCallbackKeepsItsSlot) {
  // A callback re-arms its own event twice: the event runs three times
  // from one slot, each re-arm counting as a heap schedule.
  EventQueue q;
  std::vector<double> runs;
  const auto record = [&](Time at, EventId, EventQueue::Callback& action) {
    runs.push_back(at);
    action();
  };
  q.schedule(1.0, [&] {
    if (runs.size() < 3) q.rearm(runs.back() + 1.0, q.reserve_seq());
  });
  q.schedule(2.5, [] {});
  while (q.dispatch_head(record)) {
  }
  EXPECT_EQ(runs, (std::vector<double>{1.0, 2.0, 2.5, 3.0}));
  EXPECT_EQ(q.slot_count(), 2u);
  EXPECT_EQ(q.scheduled_heap(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RearmOutsideACallbackThrows) {
  EventQueue q;
  EXPECT_THROW(q.rearm(1.0, q.reserve_seq()), std::logic_error);
  q.schedule(1.0, [] {});
  ASSERT_TRUE(pop(q).has_value());  // the event ran and is gone
  EXPECT_THROW(q.rearm(2.0, q.reserve_seq()), std::logic_error);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.reschedule(a, 3.0, q.reserve_seq());
  EXPECT_EQ(q.size(), 2u);
  pop(q);
  EXPECT_EQ(q.size(), 1u);
  pop(q);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeFollowsRekeyedHead) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  const EventId moved = q.reschedule(a, 3.0, q.reserve_seq());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.reschedule(moved, 0.5, q.reserve_seq());
  EXPECT_DOUBLE_EQ(q.next_time(), 0.5);
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
  EXPECT_FALSE(pop(q).has_value());
}

TEST(EventQueue, ManyInterleavedRekeysStayConsistent) {
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i % 37), [] {}));
  }
  // Every other event moves, half later and half earlier.
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    const double at = static_cast<double>((i * 7) % 41) - 2.0;
    ids[i] = q.reschedule(ids[i], at, q.reserve_seq());
  }
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_EQ(q.rekeys(), 500u);
  std::size_t popped = 0;
  double last = -3.0;
  while (auto event = pop(q)) {
    EXPECT_GE(event->at, last);
    last = event->at;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u);
}

TEST(EventQueue, ClearResetsPoolForReuse) {
  // Regression: clear() must reset the slot pool so the queue is
  // immediately reusable — schedule -> clear -> schedule.
  EventQueue q;
  std::vector<EventId> old_ids;
  for (int i = 0; i < 64; ++i) {
    old_ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);

  int fired = 0;
  q.schedule(7.0, [&] { ++fired; });
  const EventId later = q.schedule(9.0, [&] { ++fired; });
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  // Handles from before clear() are dead and must not re-key the new
  // events now occupying their recycled slots.
  for (const EventId id : old_ids) {
    EXPECT_THROW(q.reschedule(id, 1.0, q.reserve_seq()), std::invalid_argument);
  }
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  q.reschedule(later, 5.0, q.reserve_seq());
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  int runs = 0;
  while (auto event = pop(q)) {
    event->action();
    ++runs;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(runs, 2);
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
  while (auto event = pop(q)) {
    EXPECT_GT(event->at, last);
    last = event->at;
  }
}

TEST(EventQueue, StaleHandleNeverRekeysSlotReuser) {
  // Fire an event, then recycle its pool slot many times; the original
  // handle must stay dead (fresh sequence numbers make each schedule()'s
  // handle unique).
  EventQueue q;
  const EventId original = q.schedule(1.0, [] {});
  ASSERT_TRUE(pop(q).has_value());
  for (int round = 0; round < 100; ++round) {
    const EventId reuse = q.schedule(1.0, [] {});
    EXPECT_NE(reuse, original);
    EXPECT_THROW(q.reschedule(original, 2.0, q.reserve_seq()),
                 std::invalid_argument);
    const auto event = pop(q);
    ASSERT_TRUE(event.has_value());
    EXPECT_DOUBLE_EQ(event->at, 1.0);
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
// call, in sequence-number order.

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

TEST(EventQueueBatch, RekeyInsideEqualTimeRunTakesReservedPlace) {
  EventQueue queue;
  const std::uint64_t reserved = queue.reserve_seq();
  const EventId a = queue.schedule(3.0, [] {});
  EventId b = queue.schedule(4.0, [] {});
  const EventId c = queue.schedule(3.0, [] {});
  // Re-key the later event into the cohort with a number reserved before
  // either member was scheduled: it runs first.
  b = queue.reschedule(b, 3.0, reserved);
  std::vector<EventId> ids;
  while (queue.dispatch_head([&](Time at, EventId id, EventQueue::Callback&) {
    EXPECT_DOUBLE_EQ(at, 3.0);
    ids.push_back(id);
  })) {
  }
  EXPECT_EQ(ids, (std::vector<EventId>{b, a, c}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueBatch, RekeyOfHeapEventFromCallbackUpdatesHead) {
  // While an event is being dispatched its slot is still claimed; a re-key
  // of the in-heap head from inside the callback must leave next_time()
  // truthful.
  EventQueue queue;
  queue.schedule(1.0, [] {});
  const EventId later = queue.schedule(2.0, [] {});
  queue.schedule(3.0, [] {});
  ASSERT_TRUE(queue.dispatch_head([&](Time, EventId, EventQueue::Callback&) {
    queue.reschedule(later, 4.0, queue.reserve_seq());
    EXPECT_DOUBLE_EQ(queue.next_time(), 3.0);
  }));
  std::vector<double> times;
  while (const auto event = pop(queue)) times.push_back(event->at);
  EXPECT_EQ(times, (std::vector<double>{3.0, 4.0}));
}

TEST(EventQueue, RekeysCountsEveryReschedule) {
  // Re-key churn over the heap lane beside FIFO traffic: each reschedule()
  // counts once, and a drained queue ran every scheduled event exactly
  // once, whatever the re-keys did to its key.
  RandomStream rng(5);
  EventQueue q;
  std::vector<EventId> heap_ids;
  std::uint64_t rekeyed = 0, ran = 0;
  double fifo_at = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      heap_ids.push_back(q.schedule(rng.uniform(0.0, 50.0), [] {}));
      fifo_at += rng.uniform(0.0, 1.0);
      q.schedule_monotone(fifo_at, [] {});
    }
    for (int i = 0; i < 6; ++i) {
      const std::size_t pick = rng.uniform_index(heap_ids.size());
      heap_ids[pick] =
          q.reschedule(heap_ids[pick], rng.uniform(0.0, 60.0), q.reserve_seq());
      ++rekeyed;
    }
    for (int i = 0; i < 4; ++i) {
      const auto event = pop(q);
      ASSERT_TRUE(event.has_value());
      ++ran;
      const auto it = std::find(heap_ids.begin(), heap_ids.end(), event->id);
      if (it != heap_ids.end()) heap_ids.erase(it);
    }
    EXPECT_EQ(q.rekeys(), rekeyed);
  }
  while (pop(q)) ++ran;
  EXPECT_EQ(rekeyed, 1200u);
  EXPECT_EQ(q.scheduled_heap() + q.scheduled_fifo(), ran);
}

TEST(EventQueue, EveryScheduledEventRuns) {
  // Event conservation over both lanes: FIFO appends, FIFO calls diverted
  // to the heap (times below the ring's tail), heap schedules with fresh
  // and reserved numbers, drained through dispatch_head and pop. Once
  // empty, the lane counts add up to the events run.
  RandomStream rng(17);
  EventQueue q;
  std::uint64_t heap_calls = 0, monotone_calls = 0, dispatched = 0;
  std::size_t peak = 0;
  double fifo_at = 0.0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 6; ++i) {
      if (i % 2 == 0) {
        q.schedule(rng.uniform(0.0, 80.0), [] {});
      } else {
        q.schedule(rng.uniform(0.0, 80.0), q.reserve_seq(), [] {});
      }
      ++heap_calls;
      // Every fourth monotone time dips below the tail and diverts.
      const double at = i % 4 == 3 ? fifo_at * rng.uniform01()
                                   : (fifo_at += rng.uniform(0.0, 1.0));
      q.schedule_monotone(at, [] {});
      ++monotone_calls;
      peak = std::max(peak, q.size());
    }
    for (int i = 0; i < 3; ++i) {
      dispatched += q.dispatch_head([](Time, EventId, EventQueue::Callback&) {});
    }
    if (pop(q)) ++dispatched;
  }
  while (q.dispatch_head([](Time, EventId, EventQueue::Callback&) {})) {
    ++dispatched;
  }

  EXPECT_GT(q.fifo_diverted(), 100u);
  EXPECT_EQ(q.scheduled_heap(), heap_calls + q.fifo_diverted());
  EXPECT_EQ(q.scheduled_fifo(), monotone_calls - q.fifo_diverted());
  EXPECT_EQ(q.scheduled_heap() + q.scheduled_fifo(), dispatched);
  EXPECT_EQ(q.peak_size(), peak);
}

}  // namespace
}  // namespace tempriv::sim
