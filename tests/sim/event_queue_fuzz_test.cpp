// Model-based randomized test: the EventQueue against a trivially-correct
// reference model (a sorted multimap), across thousands of interleaved
// schedule/reserve/reschedule/pop operations.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

#include "pop_event.h"

namespace tempriv::sim {
namespace {

class EventQueueFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzzTest, MatchesReferenceModel) {
  RandomStream rng(GetParam());
  EventQueue queue;
  // Reference: (time, sequence number) -> id; mirrors the tie-break
  // contract. `next` mirrors the queue's sequence counter: schedule() and
  // reserve_seq() each take one number.
  std::map<std::pair<double, std::uint64_t>, EventId> model;
  std::uint64_t next = 1;
  std::vector<std::pair<std::pair<double, std::uint64_t>, EventId>> live;
  // Numbers reserved and not yet used; an event keyed on one ties ahead of
  // everything scheduled after the reservation.
  std::vector<std::uint64_t> reserved;
  // Handles whose events fired, were re-keyed away, or were dropped by
  // clear(). Slots recycle aggressively under this churn, so these exercise
  // the stale-handle guarantee: a dead id must never alias a newer event.
  std::vector<EventId> dead;
  double last_at = 0.0;
  const auto draw_time = [&](int op) {
    // Every 8th draw reuses the previous one so exact time ties (broken by
    // sequence number) stay exercised.
    return op % 8 == 7 ? last_at : (last_at = rng.uniform(0.0, 100.0));
  };
  const auto take_seq = [&] {
    if (reserved.empty() || rng.uniform01() < 0.5) {
      EXPECT_EQ(queue.reserve_seq(), next);
      return next++;
    }
    const std::uint64_t seq = reserved.back();
    reserved.pop_back();
    return seq;
  };

  for (int op = 0; op < 5000; ++op) {
    const double dice = rng.uniform01();
    if (dice < 0.4) {
      const double at = draw_time(op);
      const EventId id = queue.schedule(at, [] {});
      model.emplace(std::make_pair(at, next), id);
      live.push_back({{at, next}, id});
      ++next;
    } else if (dice < 0.45) {
      ASSERT_EQ(queue.reserve_seq(), next);
      reserved.push_back(next++);
    } else if (dice < 0.5 && !reserved.empty()) {
      // Schedule with a number reserved earlier.
      const double at = draw_time(op);
      const std::uint64_t seq = reserved.back();
      reserved.pop_back();
      const EventId id = queue.schedule(at, seq, [] {});
      model.emplace(std::make_pair(at, seq), id);
      live.push_back({{at, seq}, id});
    } else if (dice < 0.75 && !live.empty()) {
      // Re-key a random live event in place.
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(live.size()));
      auto& [key, id] = live[pick];
      ASSERT_EQ(model.erase(key), 1u);
      const double at = draw_time(op);
      const std::uint64_t seq = take_seq();
      const EventId old = id;
      id = queue.reschedule(old, at, seq);
      key = {at, seq};
      model.emplace(key, id);
      dead.push_back(old);
    } else if (dice < 0.99 && !model.empty()) {
      // Pop: must match the model's earliest (time, seq) entry.
      const auto expected = model.begin();
      ASSERT_DOUBLE_EQ(queue.next_time(), expected->first.first);
      const auto event = pop(queue);
      ASSERT_TRUE(event.has_value());
      ASSERT_EQ(event->id, expected->second);
      ASSERT_DOUBLE_EQ(event->at, expected->first.first);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].second == expected->second) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      model.erase(expected);
      dead.push_back(event->id);
    } else if (dice >= 0.99) {
      // Rare full reset: everything pending dies, handles included.
      queue.clear();
      for (const auto& entry : live) dead.push_back(entry.second);
      live.clear();
      model.clear();
    }
    if (!dead.empty()) {
      // A recycled slot must never resurrect an old handle: re-keying one
      // throws and leaves the queue as it was.
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_index(dead.size()));
      ASSERT_THROW(queue.reschedule(dead[pick], 1.0, next - 1),
                   std::invalid_argument);
    }
    ASSERT_EQ(queue.size(), model.size());
  }

  // Drain: remaining events come out in exact model order.
  while (!model.empty()) {
    const auto expected = model.begin();
    const auto event = pop(queue);
    ASSERT_TRUE(event.has_value());
    ASSERT_EQ(event->id, expected->second);
    model.erase(expected);
  }
  ASSERT_FALSE(pop(queue).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

// The heap lane's storage grows in line-aligned blocks, and a free slot's
// link shares heap_pos_ with the heap positions. Ramp the queue through
// several growths with random schedule, reschedule, rearm and clear() calls
// against the sorted-multimap model, and check after every growth that
// entry 1 (the first child group) starts a 64-byte line.
TEST(EventQueueHeapStore, GrowthMatchesModelAndAlignsChildGroups) {
  RandomStream rng(2024);
  EventQueue queue;
  std::map<std::pair<double, std::uint64_t>, EventId> model;
  std::vector<std::pair<std::pair<double, std::uint64_t>, EventId>> live;
  std::uint64_t next = 1;
  std::size_t capacity = queue.heap_capacity();
  int growths = 0;
  const auto note_growth = [&] {
    if (queue.heap_capacity() == capacity) return;
    ++growths;
    capacity = queue.heap_capacity();
    EXPECT_EQ(
        reinterpret_cast<std::uintptr_t>(queue.heap_first_child()) % 64, 0u)
        << "capacity " << capacity;
  };
  const auto forget = [&](EventId id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].second == id) {
        live[i] = live.back();
        live.pop_back();
        return;
      }
    }
    ADD_FAILURE() << "id not live";
  };
  // Pops the model's head; the running callback may re-arm itself.
  const auto pop_and_maybe_rearm = [&] {
    const auto expected = model.begin();
    const EventId dead = expected->second;
    std::optional<std::pair<std::pair<double, std::uint64_t>, EventId>> armed;
    ASSERT_TRUE(queue.dispatch_head(
        [&](Time at, EventId id, EventQueue::Callback&) {
          EXPECT_EQ(id, expected->second);
          EXPECT_EQ(at, expected->first.first);
          if (rng.uniform01() < 0.3) {
            const double when = at + rng.uniform(0.0, 50.0);
            const std::uint64_t seq = queue.reserve_seq();
            ++next;
            armed.emplace(std::make_pair(when, seq), queue.rearm(when, seq));
          }
        }));
    model.erase(expected);
    forget(dead);
    if (armed) {
      model.emplace(armed->first, armed->second);
      live.push_back(*armed);
    }
    // The dispatched handle is dead whether or not its slot was re-armed.
    EXPECT_THROW(queue.reschedule(dead, 1.0, next - 1), std::invalid_argument);
  };

  bool cleared = false;
  for (const std::size_t target : {100u, 400u, 1200u, 3000u}) {
    while (model.size() < target) {
      const double dice = rng.uniform01();
      if (dice < 0.7) {
        const double at = rng.uniform(0.0, 1000.0);
        const EventId id = queue.schedule(at, [] {});
        model.emplace(std::make_pair(at, next), id);
        live.push_back({{at, next}, id});
        ++next;
      } else if (dice < 0.85) {
        auto& [key, id] = live[rng.uniform_index(live.size())];
        ASSERT_EQ(model.erase(key), 1u);
        const double at = rng.uniform(0.0, 1000.0);
        const std::uint64_t seq = queue.reserve_seq();
        ++next;
        id = queue.reschedule(id, at, seq);
        key = {at, seq};
        model.emplace(key, id);
      } else if (!model.empty()) {
        pop_and_maybe_rearm();
      }
      note_growth();
      ASSERT_EQ(queue.size(), model.size());
    }
    // Drain a third, so later growth starts from a shrunken heap.
    for (std::size_t i = 0; i < target / 3; ++i) pop_and_maybe_rearm();
    ASSERT_EQ(queue.size(), model.size());
    if (target == 400u && !cleared) {
      // Everything pending dies; the storage is kept and refilled.
      queue.clear();
      model.clear();
      live.clear();
      cleared = true;
      EXPECT_TRUE(queue.empty());
      EXPECT_EQ(queue.heap_capacity(), capacity);
    }
  }
  EXPECT_GE(growths, 4);  // the first block plus at least three growths
  while (!model.empty()) pop_and_maybe_rearm();
  EXPECT_FALSE(pop(queue).has_value());
}

}  // namespace
}  // namespace tempriv::sim
