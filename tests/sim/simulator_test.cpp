#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.h"

namespace tempriv::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_at(5.0, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(2.5, [&] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(seen, (std::vector<double>{2.5, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 13.0);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
}

TEST(Simulator, SchedulingAtCurrentTimeIsAllowed) {
  Simulator sim;
  bool nested_ran = false;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(5.0, [&] { nested_ran = true; });
  });
  sim.run();
  EXPECT_TRUE(nested_ran);
}

TEST(Simulator, NonFiniteTimesThrow) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(kTimeInfinity, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(std::nan(""), [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_until(5.5), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);  // clock rests at the deadline
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.run_until(100.0), 5u);
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // A fresh run() resumes with the remaining events.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RescheduledEventRunsAtItsNewTime) {
  Simulator sim;
  std::vector<double> fired_at;
  const EventId id = sim.schedule_at(1.0, [&] { fired_at.push_back(sim.now()); });
  sim.schedule_at(2.0, [&] { fired_at.push_back(sim.now()); });
  sim.reschedule(id, 3.0, sim.reserve_seq());
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired_at, (std::vector<double>{2.0, 3.0}));
}

TEST(Simulator, ReservedScheduleAndRescheduleCheckTimes) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  const std::uint64_t seq = sim.reserve_seq();
  EXPECT_THROW(sim.schedule_at(4.0, seq, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(kTimeInfinity, seq, [] {}),
               std::invalid_argument);
  const EventId id = sim.schedule_at(6.0, seq, [] {});
  EXPECT_THROW(sim.reschedule(id, 4.0, seq), std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 6.0);
}

TEST(Simulator, EventsExecutedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(1.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.run_until(2.0), 1u);
  EXPECT_EQ(sim.run_until(3.0), 0u);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NextEventTimeReflectsQueue) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
  sim.schedule_at(4.0, [] {});
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 4.0);
}

TEST(Simulator, CascadedEventsKeepVirtualTimeCausal) {
  // Events scheduling events: time must be non-decreasing throughout.
  Simulator sim;
  std::vector<double> times;
  std::function<void(int)> chain = [&](int depth) {
    times.push_back(sim.now());
    if (depth > 0) {
      sim.schedule_after(0.5, [&chain, depth] { chain(depth - 1); });
    }
  };
  sim.schedule_at(1.0, [&] { chain(20); });
  sim.run();
  ASSERT_EQ(times.size(), 21u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
}

// Equal-time cohorts: the dispatch loop runs them one event at a time in
// insertion order, and everything a callback does inside a cohort — re-key,
// schedule at the current time, stop(), throw — is ordered by sequence
// number like any other event.

TEST(SimulatorBatch, EqualTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorBatch, CallbackRekeyingLaterEqualTimeEventMovesIt) {
  // A cohort member re-keys a later sibling with a fresh number: the
  // sibling now runs after everything scheduled before the re-key.
  Simulator sim;
  std::vector<int> order;
  EventId moved;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.reschedule(moved, 1.0, sim.reserve_seq());
  });
  moved = sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorBatch, CallbackSchedulingAtSameTimeRunsAfterCohort) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(9); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(SimulatorBatch, StopMidBatchLeavesRemainderPending) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.stop();
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 1.0);

  // Resuming runs the rest in the original order.
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorBatch, ExceptionMidBatchRequeuesRemainder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { throw std::runtime_error("boom"); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SimulatorBatch, RunUntilHonorsDeadlineAcrossBatches) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.schedule_at(3.0, [&] { order.push_back(4); });
  EXPECT_EQ(sim.run_until(2.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

// Model-based fuzz of the dispatch loop: randomized schedule, re-key,
// run_until and run calls on a coarse time grid (so equal-time cohorts are
// common), with callbacks that themselves schedule — often at the current
// time — re-key pending events, re-arm themselves, and stop the run. The reference model is
// one event at a time: a map on (time, sequence number). Every callback
// checks that it is the model's earliest pending event, so any departure
// from (time, seq) order is caught at the first misordered event.
class EventQueueBatchFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

class DispatchModel {
 public:
  using Key = std::pair<double, std::uint64_t>;

  explicit DispatchModel(std::uint64_t seed) : rng_(seed) {}

  Simulator sim;
  std::map<Key, std::uint64_t> pending;  // -> token
  std::size_t ran = 0;
  bool misordered = false;
  bool stopped = false;  // a callback called stop() since the last reset

  RandomStream& rng() { return rng_; }

  void schedule(double at) {
    const std::uint64_t token = next_token_++;
    const Key key{at, seq_++};
    pending.emplace(key, token);
    entries_[token] = {key, sim.schedule_at(at, [this, token] { fire(token); })};
  }

  // Moves a random pending event to a grid time at or after now, keyed on
  // a freshly reserved number.
  void rekey_random() {
    if (pending.empty()) return;
    const auto it = std::next(
        pending.begin(),
        static_cast<std::ptrdiff_t>(rng_.uniform_index(pending.size())));
    const std::uint64_t token = it->second;
    pending.erase(it);
    Entry& entry = entries_[token];
    const double at =
        sim.now() + 0.5 * static_cast<double>(rng_.uniform_index(4));
    entry.id = sim.reschedule(entry.id, at, sim.reserve_seq());
    entry.key = {at, seq_++};
    pending.emplace(entry.key, token);
  }

 private:
  struct Entry {
    Key key;
    EventId id;
  };

  void fire(std::uint64_t token) {
    Entry& entry = entries_[token];
    if (pending.empty() || pending.begin()->first != entry.key ||
        sim.now() != entry.key.first) {
      misordered = true;
    }
    pending.erase(entry.key);
    ++ran;
    if (rng_.uniform01() < 0.15) {
      // Re-arm this event, often into the current cohort.
      const double at =
          sim.now() + 0.5 * static_cast<double>(rng_.uniform_index(3));
      entry.id = sim.rearm(at, sim.reserve_seq());
      entry.key = {at, seq_++};
      pending.emplace(entry.key, token);
    } else {
      entries_.erase(token);
    }
    const double dice = rng_.uniform01();
    if (dice < 0.3) {
      schedule(sim.now());  // joins the current cohort, behind its members
    } else if (dice < 0.45) {
      schedule(sim.now() +
               0.5 * static_cast<double>(1 + rng_.uniform_index(4)));
    }
    if (rng_.uniform01() < 0.2) rekey_random();  // often a cohort sibling
    if (rng_.uniform01() < 0.03) {
      sim.stop();
      stopped = true;
    }
  }

  RandomStream rng_;
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t seq_ = 0;  // mirrors the kernel's sequence counter
  std::uint64_t next_token_ = 0;
};

TEST_P(EventQueueBatchFuzzTest, MatchesOneAtATimeReferenceModel) {
  DispatchModel m(GetParam());
  RandomStream& rng = m.rng();
  double last_at = 0.0;
  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.uniform01();
    const std::size_t ran_before = m.ran;
    m.stopped = false;
    if (dice < 0.5) {
      if (op % 4 != 3 || last_at < m.sim.now()) {
        last_at =
            m.sim.now() + 0.5 * static_cast<double>(rng.uniform_index(20));
      }
      m.schedule(last_at);
    } else if (dice < 0.65) {
      m.rekey_random();
    } else if (dice < 0.9) {
      const double deadline =
          m.sim.now() + 0.5 * static_cast<double>(rng.uniform_index(6)) +
          (rng.uniform01() < 0.3 ? 0.25 : 0.0);
      const std::size_t count = m.sim.run_until(deadline);
      ASSERT_EQ(count, m.ran - ran_before);
      if (!m.stopped) {
        ASSERT_TRUE(m.pending.empty() ||
                    m.pending.begin()->first.first > deadline);
        ASSERT_DOUBLE_EQ(m.sim.now(), deadline);
      }
    } else {
      const std::size_t count = m.sim.run();
      ASSERT_EQ(count, m.ran - ran_before);
      if (!m.stopped) {
        ASSERT_TRUE(m.pending.empty());
      }
    }
    ASSERT_FALSE(m.misordered) << "op " << op;
    ASSERT_EQ(m.sim.pending_events(), m.pending.size());
    ASSERT_EQ(m.sim.next_event_time(), m.pending.empty()
                                           ? kTimeInfinity
                                           : m.pending.begin()->first.first);
  }
  // Drain the rest; stop() may interrupt a run, so loop until empty.
  while (m.sim.pending_events() != 0) m.sim.run();
  ASSERT_FALSE(m.misordered);
  ASSERT_TRUE(m.pending.empty());
  ASSERT_EQ(m.sim.events_executed(), m.ran);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueBatchFuzzTest,
                         ::testing::Values(7u, 21u, 301u, 9999u));

}  // namespace
}  // namespace tempriv::sim
