// The monotone FIFO lane (schedule_monotone): ordering against heap-lane
// events, re-keying, the non-monotone fallback, and dispatch_head's
// merge of the two lanes, equal-time cohorts included.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

#include "pop_event.h"

namespace tempriv::sim {
namespace {

TEST(EventQueueFifo, MonotoneEventsPopInOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule_monotone(static_cast<double>(i), [&order, i] {
      order.push_back(i);
    });
  }
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueFifo, InterleavesWithHeapLaneByTimeThenInsertion) {
  // Events at the same time must pop in insertion order regardless of which
  // lane each went through — the cross-lane merge compares aux words.
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(0); });           // heap
  q.schedule_monotone(2.0, [&] { order.push_back(1); });  // fifo, same time
  q.schedule(1.0, [&] { order.push_back(2); });           // heap, earlier
  q.schedule_monotone(3.0, [&] { order.push_back(3); });  // fifo, later
  q.schedule(2.0, [&] { order.push_back(4); });           // heap, tie again
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 4, 3}));
}

TEST(EventQueueFifo, RescheduleRejectsFifoLaneEvents) {
  // Only heap-lane records are re-keyed; a FIFO record stays where the
  // sorted ring put it.
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(1.0, [&] { order.push_back(1); });
  const EventId fifo = q.schedule_monotone(2.0, [&] { order.push_back(2); });
  q.schedule(1.5, [&] { order.push_back(15); });
  EXPECT_THROW(q.reschedule(fifo, 0.5, q.reserve_seq()), std::invalid_argument);
  EXPECT_EQ(q.size(), 3u);
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 15, 2}));
}

TEST(EventQueueFifo, NonMonotoneTimeFallsBackToHeap) {
  // A time below the ring's tail must still execute, and in correct order —
  // the lane diverts it through the heap rather than breaking sortedness.
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(5.0, [&] { order.push_back(5); });
  q.schedule_monotone(9.0, [&] { order.push_back(9); });
  const EventId early = q.schedule_monotone(1.0, [&] { order.push_back(1); });
  q.schedule_monotone(9.5, [&] { order.push_back(95); });
  EXPECT_NE(early, EventId{});
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 9, 95}));
}

TEST(EventQueueFifo, FallbackEventIsReschedulable) {
  // A diverted monotone call is an ordinary heap record.
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(5.0, [&] { order.push_back(5); });
  const EventId early = q.schedule_monotone(1.0, [&] { order.push_back(1); });
  q.reschedule(early, 7.0, q.reserve_seq());
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{5, 1}));
}

// Runs every pending event through dispatch_head, returning the ids in
// dispatch order.
std::vector<EventId> drain_ids(EventQueue& q) {
  std::vector<EventId> ids;
  while (q.dispatch_head([&](Time, EventId id, EventQueue::Callback& action) {
    ids.push_back(id);
    action();
  })) {
  }
  return ids;
}

TEST(EventQueueFifo, DispatchHeadMergesEqualTimeCohortAcrossLanes) {
  // An equal-time cohort spanning both lanes runs in insertion order.
  EventQueue q;
  const EventId a = q.schedule(4.0, [] {});           // seq 1, heap
  const EventId b = q.schedule_monotone(4.0, [] {});  // seq 2, fifo
  const EventId c = q.schedule(4.0, [] {});           // seq 3, heap
  const EventId d = q.schedule_monotone(4.0, [] {});  // seq 4, fifo
  const EventId e = q.schedule_monotone(6.0, [] {});  // later; stays behind
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{a, b, c, d, e}));
}

TEST(EventQueueFifo, DispatchHeadBreaksCrossLaneTieByInsertion) {
  EventQueue q;
  const EventId fifo_first = q.schedule_monotone(3.0, [] {});
  const EventId heap_second = q.schedule(3.0, [] {});
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{fifo_first, heap_second}));
}

TEST(EventQueueFifo, DispatchHeadRunsFifoInternalTieInOrder) {
  EventQueue q;
  const EventId a = q.schedule_monotone(3.0, [] {});
  const EventId b = q.schedule_monotone(3.0, [] {});
  EXPECT_EQ(drain_ids(q), (std::vector<EventId>{a, b}));
}

TEST(EventQueueFifo, DispatchHeadTakesEarlierLaneHead) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.schedule_monotone(1.0, [] {});
  std::vector<Time> times;
  const auto record = [&](Time at, EventId, EventQueue::Callback&) {
    times.push_back(at);
  };
  EXPECT_TRUE(q.dispatch_head(record));
  EXPECT_TRUE(q.dispatch_head(record));
  EXPECT_FALSE(q.dispatch_head(record));
  EXPECT_EQ(times, (std::vector<Time>{1.0, 2.0}));  // fifo head first
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFifo, DispatchHeadRunsCallbackInPlace) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_monotone(1.5, [&] { ++fired; });
  const bool dispatched = q.dispatch_head(
      [&](Time at, EventId seen, EventQueue::Callback& action) {
        EXPECT_DOUBLE_EQ(at, 1.5);
        EXPECT_EQ(seen, id);
        // The handle died before the callback ran.
        EXPECT_THROW(q.reschedule(id, 2.0, q.reserve_seq()),
                     std::invalid_argument);
        action();
      });
  EXPECT_TRUE(dispatched);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFifo, DispatchHeadAllowsSchedulingFromCallback) {
  // The dispatched callback may schedule and re-key freely — the slot it
  // runs from is released only after it returns.
  EventQueue q;
  std::vector<int> order;
  q.schedule_monotone(1.0, [&] {
    order.push_back(1);
    q.schedule_monotone(2.0, [&] { order.push_back(2); });
    const EventId moved = q.schedule(1.5, [&] { order.push_back(3); });
    q.reschedule(moved, 2.5, q.reserve_seq());
  });
  drain_ids(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFifo, ClearResetsFifoLane) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.schedule_monotone(static_cast<double>(i), [] {});
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  // The lane's tail-key state must reset too: a fresh monotone stream
  // starting from zero belongs in the ring, and ordering must hold.
  std::vector<int> order;
  q.schedule_monotone(0.5, [&] { order.push_back(1); });
  q.schedule_monotone(0.75, [&] { order.push_back(2); });
  while (auto event = pop(q)) event->action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueFifo, RingGrowthPreservesOrder) {
  // Push far past the initial ring capacity with live wrap-around: pop half,
  // push more, so fifo_grow() has to relocate a wrapped window.
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  for (int i = 0; i < 96; ++i) {
    q.schedule_monotone(static_cast<double>(next),
                        [&order, next] { order.push_back(next); });
    ++next;
  }
  for (int i = 0; i < 48; ++i) {
    auto event = pop(q);
    ASSERT_TRUE(event.has_value());
    event->action();
  }
  for (int i = 0; i < 200; ++i) {
    q.schedule_monotone(static_cast<double>(next),
                        [&order, next] { order.push_back(next); });
    ++next;
  }
  while (auto event = pop(q)) event->action();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(order[i], i);
}

// Randomized cross-lane check against a reference model: mixed
// schedule/schedule_monotone/reschedule/pop must match a sorted multimap on
// (time, insertion seq) exactly. The monotone stream uses its own
// non-decreasing clock; occasional below-tail times exercise the fallback.
TEST(EventQueueFifo, MixedLanesMatchReferenceModel) {
  for (const std::uint64_t seed : {11u, 29u, 4242u}) {
    RandomStream rng(seed);
    EventQueue q;
    std::map<std::pair<double, std::uint64_t>, EventId> model;
    // Heap-lane events scheduled with schedule(), the ones re-keyed below.
    std::vector<std::pair<std::pair<double, std::uint64_t>, EventId>> live;
    std::uint64_t seq = 0;
    double clock = 0.0;

    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.35) {
        // Monotone stream; every 16th draw dips below the current clock to
        // hit the heap fallback, every 8th repeats the clock to make ties.
        double at;
        if (op % 16 == 15) {
          at = clock * rng.uniform01();
        } else if (op % 8 == 7) {
          at = clock;
        } else {
          at = (clock += rng.uniform(0.0, 1.0));
        }
        const EventId id = q.schedule_monotone(at, [] {});
        model.emplace(std::make_pair(at, seq), id);
        ++seq;
      } else if (dice < 0.55) {
        const double at = rng.uniform(0.0, clock + 10.0);
        const EventId id = q.schedule(at, [] {});
        model.emplace(std::make_pair(at, seq), id);
        live.push_back({{at, seq}, id});
        ++seq;
      } else if (dice < 0.7 && !live.empty()) {
        // Re-key a heap event to a fresh time and a freshly reserved
        // number; it now ties behind everything scheduled before.
        const std::size_t pick =
            static_cast<std::size_t>(rng.uniform_index(live.size()));
        auto& [key, id] = live[pick];
        ASSERT_EQ(model.erase(key), 1u);
        const double at = rng.uniform(0.0, clock + 10.0);
        id = q.reschedule(id, at, q.reserve_seq());
        key = {at, seq++};
        model.emplace(key, id);
      } else if (!model.empty()) {
        const auto expected = model.begin();
        ASSERT_DOUBLE_EQ(q.next_time(), expected->first.first);
        const auto event = pop(q);
        ASSERT_TRUE(event.has_value());
        ASSERT_EQ(event->id, expected->second);
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i].second == expected->second) {
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        model.erase(expected);
      }
      ASSERT_EQ(q.size(), model.size());
    }

    while (!model.empty()) {
      const auto expected = model.begin();
      const auto event = pop(q);
      ASSERT_TRUE(event.has_value());
      ASSERT_EQ(event->id, expected->second);
      model.erase(expected);
    }
    ASSERT_FALSE(pop(q).has_value());
  }
}

}  // namespace
}  // namespace tempriv::sim
