// Model-based randomized test: the EventQueue against a trivially-correct
// reference model (a sorted multimap), across thousands of interleaved
// schedule/reserve/reschedule/pop operations.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
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

}  // namespace
}  // namespace tempriv::sim
