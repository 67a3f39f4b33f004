#include "core/delay_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "oracles/select_victim.h"
#include "test_context.h"

namespace tempriv::core {
namespace {

using oracles::select_victim;
using testing::TestContext;

TEST(DelayBuffer, RequiresDistribution) {
  EXPECT_THROW(DelayBuffer(nullptr), std::invalid_argument);
}

TEST(DelayBuffer, ReleasesAfterSampledDelay) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(4.0));
  buffer.offer(0, ctx.make_packet(1), ctx);
  EXPECT_EQ(buffer.size(), 1u);
  ctx.simulator().run();
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.transmitted()[0].first, 4.0);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, 1u);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DelayBuffer, SnapshotRecordsReleaseTimes) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(10.0));
  buffer.offer(0, ctx.make_packet(7), ctx);
  const auto held = buffer.snapshot();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_DOUBLE_EQ(held[0].enqueue_time, 0.0);
  EXPECT_DOUBLE_EQ(held[0].release_time, 10.0);
  EXPECT_EQ(held[0].packet.uid, 7u);
}

TEST(DelayBuffer, SnapshotPreservesAdmissionOrder) {
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ExponentialDelay>(5.0), VictimPolicy::kOldest, 8});
  for (std::uint64_t uid = 0; uid < 10; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  // The two arrivals at capacity preempt the two oldest; removing packets
  // must keep the remaining relative order, exactly like the pre-slot-pool
  // vector erase did.
  ASSERT_EQ(ctx.transmitted().size(), 2u);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, 0u);
  EXPECT_EQ(ctx.transmitted()[1].second.uid, 1u);
  const auto held = buffer.snapshot();
  ASSERT_EQ(held.size(), 8u);
  const std::uint64_t expected[] = {2, 3, 4, 5, 6, 7, 8, 9};
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].packet.uid, expected[i]);
  }
}

TEST(DelayBuffer, CountsOccupancyAtEachAdmission) {
  // Bucket b counts admissions that leave the queue with bit_width(size)
  // == b; the peak is the largest size any queue reached.
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ConstantDelay>(1.0),
      VictimPolicy::kShortestRemaining, 5});
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);  // sizes 1, 2, 3, 4, 5
  }
  // At capacity: a preemption, then size 5 again.
  EXPECT_EQ(buffer.offer(0, ctx.make_packet(5), ctx),
            DelayBuffer::Admission::kPreempted);
  DelayBuffer::OccupancyCounts expected{};
  expected[1] = 1;  // size 1
  expected[2] = 2;  // sizes 2, 3
  expected[3] = 3;  // sizes 4, 5, 5
  EXPECT_EQ(buffer.occupancy(), expected);
  EXPECT_EQ(buffer.peak_occupancy(), 5u);
  ctx.simulator().run();
  EXPECT_EQ(buffer.occupancy(), expected);  // releases do not count
}

TEST(DelayBuffer, SlotsAreRecycledAcrossAdmissions) {
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ConstantDelay>(1.0),
      VictimPolicy::kShortestRemaining, 3});
  buffer.reserve(4);
  // Churn far more packets than the working set; every one must come back
  // out exactly once even though slots recycle.
  for (std::uint64_t uid = 0; uid < 100; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
    ctx.simulator().run_until(ctx.simulator().now() + 0.25);
  }
  ctx.simulator().run();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(ctx.transmitted().size(), 100u);
  EXPECT_EQ(buffer.admitted(), 100u);
  EXPECT_EQ(buffer.released() + buffer.preempted(), 100u);
  EXPECT_GT(buffer.preempted(), 0u);
}

TEST(DelayBuffer, MultiplePacketsReleaseIndependently) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(5.0));
  for (std::uint64_t uid = 0; uid < 20; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  EXPECT_EQ(buffer.size(), 20u);
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 20u);
  EXPECT_EQ(buffer.size(), 0u);
  // Releases are in time order (EventQueue contract).
  for (std::size_t i = 1; i < ctx.transmitted().size(); ++i) {
    EXPECT_GE(ctx.transmitted()[i].first, ctx.transmitted()[i - 1].first);
  }
}

TEST(DelayBuffer, ExponentialDelaysCanReorderPackets) {
  // §3.2: independent exponential delays do not preserve creation order —
  // with enough packets at least one pair must swap.
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 50; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  ctx.simulator().run();
  bool reordered = false;
  for (std::size_t i = 1; i < ctx.transmitted().size(); ++i) {
    if (ctx.transmitted()[i].second.uid <
        ctx.transmitted()[i - 1].second.uid) {
      reordered = true;
      break;
    }
  }
  EXPECT_TRUE(reordered);
}

TEST(SelectVictim, ShortestRemainingPicksClosestToDeparture) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  const auto held = buffer.snapshot();
  const std::size_t victim =
      select_victim(held, VictimPolicy::kShortestRemaining, 0.0, ctx.rng());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_LE(held[victim].release_time, held[i].release_time);
  }
}

TEST(SelectVictim, LongestRemainingIsOpposite) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 5; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  const auto held = buffer.snapshot();
  const std::size_t victim =
      select_victim(held, VictimPolicy::kLongestRemaining, 0.0, ctx.rng());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_GE(held[victim].release_time, held[i].release_time);
  }
}

TEST(SelectVictim, OldestPicksEarliestEnqueue) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(100.0));
  buffer.offer(0, ctx.make_packet(0), ctx);
  ctx.simulator().schedule_after(1.0, [&] {
    buffer.offer(0, ctx.make_packet(1), ctx);
  });
  ctx.simulator().run_until(2.0);
  const auto held = buffer.snapshot();
  const std::size_t victim =
      select_victim(held, VictimPolicy::kOldest, 2.0, ctx.rng());
  EXPECT_EQ(held[victim].packet.uid, 0u);
}

TEST(SelectVictim, RandomIsInRangeAndCoversBuffer) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 4; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  const auto held = buffer.snapshot();
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::size_t victim =
        select_victim(held, VictimPolicy::kRandom, 0.0, ctx.rng());
    ASSERT_LT(victim, 4u);
    seen.insert(victim);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(SelectVictim, RejectsEmptyBuffer) {
  TestContext ctx;
  EXPECT_THROW(
      select_victim(std::vector<DelayBuffer::Held>{},
                    VictimPolicy::kShortestRemaining, 0.0, ctx.rng()),
      std::invalid_argument);
}

// An arrival at capacity must preempt exactly the packet the reference
// linear scan picks — for every policy, across interleaved offers and
// releases. This is the determinism contract that keeps the paper CSVs
// byte-identical.
class PreemptMatchesReference
    : public ::testing::TestWithParam<VictimPolicy> {};

TEST_P(PreemptMatchesReference, AcrossChurn) {
  const VictimPolicy policy = GetParam();
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ExponentialDelay>(10.0), policy, 6});
  std::uint64_t uid = 0;
  std::size_t preempts = 0;
  for (int round = 0; round < 200; ++round) {
    if (buffer.size() < 6) {
      EXPECT_EQ(buffer.offer(0, ctx.make_packet(uid++), ctx),
                DelayBuffer::Admission::kAdmitted);
    } else {
      // Reference choice on a snapshot, with a cloned RNG so offer() sees
      // the same uniform draw the reference consumed.
      const auto held = buffer.snapshot();
      sim::RandomStream reference_rng = ctx.rng();
      const std::size_t expected_index = select_victim(
          held, policy, ctx.simulator().now(), reference_rng);
      const std::uint64_t expected_uid = held[expected_index].packet.uid;
      EXPECT_EQ(buffer.offer(0, ctx.make_packet(uid++), ctx),
                DelayBuffer::Admission::kPreempted);
      EXPECT_EQ(ctx.transmitted().back().second.uid, expected_uid)
          << "round " << round;
      ++preempts;
    }
    // Let some natural releases fire so the structures churn.
    ctx.simulator().run_until(ctx.simulator().now() + 0.5);
  }
  EXPECT_GT(preempts, 50u);
}

INSTANTIATE_TEST_SUITE_P(Policies, PreemptMatchesReference,
                         ::testing::Values(VictimPolicy::kShortestRemaining,
                                           VictimPolicy::kLongestRemaining,
                                           VictimPolicy::kRandom,
                                           VictimPolicy::kOldest),
                         [](const auto& info) {
                           switch (info.param) {
                             case VictimPolicy::kShortestRemaining:
                               return "ShortestRemaining";
                             case VictimPolicy::kLongestRemaining:
                               return "LongestRemaining";
                             case VictimPolicy::kRandom:
                               return "Random";
                             case VictimPolicy::kOldest:
                               return "Oldest";
                           }
                           return "Unknown";
                         });

TEST(DelayBufferPreempt, CancelsTheVictimsRelease) {
  // The victim leaves once, early; its own release never happens.
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ConstantDelay>(5.0),
      VictimPolicy::kShortestRemaining, 2});
  buffer.offer(0, ctx.make_packet(0), ctx);
  buffer.offer(0, ctx.make_packet(1), ctx);
  buffer.offer(0, ctx.make_packet(2), ctx);
  // Equal release times: the first admitted is the victim, sent at once.
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, 0u);
  ctx.simulator().run();
  // Only the survivors' releases fire, in admission order.
  ASSERT_EQ(ctx.transmitted().size(), 3u);
  EXPECT_EQ(ctx.transmitted()[1].second.uid, 1u);
  EXPECT_EQ(ctx.transmitted()[2].second.uid, 2u);
  EXPECT_DOUBLE_EQ(ctx.transmitted()[2].first, 5.0);
  EXPECT_EQ(ctx.simulator().events_executed(), 2u);
}

TEST(DelayBuffer, HoldsOneKernelEventPerQueue) {
  // However many packets a queue holds, the kernel sees one event keyed on
  // its head; it is re-keyed only when the head changes.
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ConstantDelay>(10.0),
      VictimPolicy::kShortestRemaining, 4});
  const sim::EventQueue& kernel = ctx.simulator().queue();
  for (std::uint64_t uid = 0; uid < 4; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
    // Later arrivals release later: the head stays packet 0.
    ctx.simulator().run_until(ctx.simulator().now() + 1.0);
  }
  EXPECT_EQ(ctx.simulator().pending_events(), 1u);
  EXPECT_EQ(kernel.scheduled_heap(), 1u);
  EXPECT_EQ(kernel.rekeys(), 0u);
  EXPECT_DOUBLE_EQ(ctx.simulator().next_event_time(), 10.0);
  // At capacity the head (shortest remaining) is the victim: one re-key
  // moves the event to the new head, packet 1.
  buffer.offer(0, ctx.make_packet(4), ctx);
  EXPECT_EQ(ctx.transmitted().back().second.uid, 0u);
  EXPECT_EQ(ctx.simulator().pending_events(), 1u);
  EXPECT_EQ(kernel.rekeys(), 1u);
  EXPECT_DOUBLE_EQ(ctx.simulator().next_event_time(), 11.0);
  ctx.simulator().run();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.released(), 4u);
  EXPECT_EQ(buffer.preempted(), 1u);
  // Each release schedules the event for the next head.
  EXPECT_EQ(kernel.scheduled_heap(), 4u);
  EXPECT_EQ(ctx.simulator().events_executed(), 4u);
}

// A NodeContext per slab queue, all on one simulator: records which queue
// each released packet left from.
class QueueContext final : public net::NodeContext {
 public:
  QueueContext(sim::Simulator& sim, std::uint64_t seed, DelayBuffer::QueueId queue,
               std::vector<std::pair<DelayBuffer::QueueId, std::uint64_t>>& out)
      : sim_(sim), rng_(seed), queue_(queue), out_(out) {}

  sim::Simulator& simulator() noexcept override { return sim_; }
  sim::RandomStream& rng() noexcept override { return rng_; }
  net::NodeId id() const noexcept override { return queue_; }
  void transmit(net::Packet&& packet) override { out_.emplace_back(queue_, packet.uid); }

 private:
  sim::Simulator& sim_;
  sim::RandomStream rng_;
  DelayBuffer::QueueId queue_;
  std::vector<std::pair<DelayBuffer::QueueId, std::uint64_t>>& out_;
};

std::vector<std::uint64_t> uids_of(const std::vector<DelayBuffer::Held>& held) {
  std::vector<std::uint64_t> uids;
  for (const DelayBuffer::Held& h : held) uids.push_back(h.packet.uid);
  return uids;
}

// Randomized churn over a many-queue slab — every victim policy plus queues
// that never preempt — mixing offers (at capacity: preemptions and drops)
// and fired releases. Each queue must behave exactly like its own
// reference model: an arrival at capacity preempts what select_victim (the
// linear-scan oracle, fed the same RNG draw) picks, releases leave from the
// queue that admitted them, and admission order survives every removal.
TEST(DelayBufferSlab, RandomizedChurnMatchesPerQueueReference) {
  constexpr std::size_t kQueues = 30;
  const std::optional<VictimPolicy> kVictims[] = {
      VictimPolicy::kShortestRemaining, VictimPolicy::kLongestRemaining,
      VictimPolicy::kRandom, VictimPolicy::kOldest, std::nullopt};
  sim::Simulator sim;
  DelayBuffer slab;
  std::vector<std::uint32_t> configs;
  for (const auto& victim : kVictims) {
    configs.push_back(slab.add_config(
        {std::make_shared<ExponentialDelay>(8.0), victim, 3}));
  }
  configs.push_back(slab.add_config(
      {std::make_shared<ExponentialDelay>(8.0), std::nullopt, DelayBuffer::kUnbounded}));
  // Constant delays: equal release times, so ties decide every order.
  configs.push_back(slab.add_config(
      {std::make_shared<ConstantDelay>(5.0), VictimPolicy::kShortestRemaining, 4}));
  std::vector<std::pair<DelayBuffer::QueueId, std::uint64_t>> released;
  std::vector<std::unique_ptr<QueueContext>> ctx;
  std::vector<std::vector<std::uint64_t>> model(kQueues);  // admission order
  for (std::size_t i = 0; i < kQueues; ++i) {
    const DelayBuffer::QueueId q = slab.add_queue(configs[i % configs.size()]);
    ASSERT_EQ(q, i);
    ctx.push_back(std::make_unique<QueueContext>(sim, 100 + i, q, released));
  }
  auto forget = [&](DelayBuffer::QueueId q, std::uint64_t uid) {
    auto& uids = model[q];
    const auto it = std::find(uids.begin(), uids.end(), uid);
    ASSERT_NE(it, uids.end()) << "queue " << q << " does not hold uid " << uid;
    uids.erase(it);
  };

  sim::RandomStream ops(2024);
  std::uint64_t next_uid = 0;
  std::size_t preempts = 0, drops = 0;
  for (int step = 0; step < 6000; ++step) {
    const auto q = static_cast<DelayBuffer::QueueId>(ops.uniform_index(kQueues));
    QueueContext& c = *ctx[q];
    if (ops.uniform(0.0, 1.0) < 0.8) {
      const DelayBuffer::QueueConfig& config = slab.config(q);
      const bool full = slab.size(q) >= config.capacity;
      std::optional<std::uint64_t> expected;
      if (full && config.victim) {
        const auto held = slab.snapshot(q);
        sim::RandomStream oracle_rng = c.rng();
        expected = held[select_victim(held, *config.victim, sim.now(),
                                      oracle_rng)]
                       .packet.uid;
      }
      net::Packet packet;
      packet.uid = next_uid++;
      const std::uint64_t uid = packet.uid;
      released.clear();
      const DelayBuffer::Admission outcome = slab.offer(q, std::move(packet), c);
      if (!full) {
        ASSERT_EQ(outcome, DelayBuffer::Admission::kAdmitted);
      } else if (expected) {
        ASSERT_EQ(outcome, DelayBuffer::Admission::kPreempted);
        ASSERT_EQ(released.size(), 1u);
        ASSERT_EQ(released[0], std::make_pair(q, *expected)) << "step " << step;
        forget(q, *expected);
        ++preempts;
      } else {
        ASSERT_EQ(outcome, DelayBuffer::Admission::kDropped);
        ++drops;
        continue;
      }
      model[q].push_back(uid);
    } else {
      released.clear();
      sim.run_until(sim.now() + ops.uniform(0.0, 0.5));
      for (const auto& [from, uid] : released) forget(from, uid);
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(slab.consistent()) << "step " << step;
      std::size_t total = 0;
      for (DelayBuffer::QueueId i = 0; i < kQueues; ++i) {
        ASSERT_EQ(uids_of(slab.snapshot(i)), model[i]) << "queue " << i;
        total += slab.size(i);
      }
      ASSERT_EQ(slab.size(), total);
    }
  }
  EXPECT_GT(preempts, 500u);
  EXPECT_GT(drops, 50u);
  EXPECT_EQ(slab.preempted(), preempts);
  released.clear();
  sim.run();
  for (const auto& [from, uid] : released) forget(from, uid);
  for (const auto& uids : model) EXPECT_TRUE(uids.empty());
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_TRUE(slab.consistent());
}

TEST(DelayBufferSlab, QueuesThatNeverPreemptRejectPreempt) {
  // A full queue with no victim rule never preempts: the arrival is dropped
  // and the held packets stay.
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ConstantDelay>(1.0), std::nullopt, 3});
  for (std::uint64_t uid = 0; uid < 3; ++uid) {
    EXPECT_EQ(buffer.offer(0, ctx.make_packet(uid), ctx),
              DelayBuffer::Admission::kAdmitted);
  }
  EXPECT_EQ(buffer.offer(0, ctx.make_packet(3), ctx),
            DelayBuffer::Admission::kDropped);
  EXPECT_EQ(buffer.size(), 3u);  // the drop removed nothing
  EXPECT_TRUE(ctx.transmitted().empty());
  EXPECT_EQ(buffer.admitted(), 3u);
}

TEST(DelayBufferSlab, EqualReleaseTimesLeaveInAdmissionOrderAcrossQueues) {
  // Each queue keys its one event on its head's sequence number, reserved
  // at admission, so equal-time releases from different queues interleave
  // exactly as one event per packet would: in admission order.
  sim::Simulator sim;
  DelayBuffer slab;
  const std::uint32_t config = slab.add_config(
      {std::make_shared<ConstantDelay>(5.0),
      std::nullopt, DelayBuffer::kUnbounded});
  std::vector<std::pair<DelayBuffer::QueueId, std::uint64_t>> released;
  QueueContext a(sim, 1, slab.add_queue(config), released);
  QueueContext b(sim, 2, slab.add_queue(config), released);
  const DelayBuffer::QueueId queue_of[] = {0, 1, 0, 0, 1, 0};
  for (std::uint64_t uid = 0; uid < 6; ++uid) {
    net::Packet packet;
    packet.uid = uid;
    QueueContext& c = queue_of[uid] == 0 ? a : b;
    slab.offer(queue_of[uid], std::move(packet), c);
  }
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  ASSERT_EQ(released.size(), 6u);
  for (std::uint64_t uid = 0; uid < 6; ++uid) {
    EXPECT_EQ(released[uid], std::make_pair(queue_of[uid], uid));
  }
}

TEST(DelayBufferSlab, ValidatesConfigsAndQueues) {
  DelayBuffer slab;
  EXPECT_THROW(slab.add_config({nullptr, std::nullopt, 1}), std::invalid_argument);
  EXPECT_THROW(slab.add_config({std::make_shared<ConstantDelay>(1.0), std::nullopt, 0}),
               std::invalid_argument);
  EXPECT_THROW(slab.add_queue(0), std::out_of_range);
  const std::uint32_t config =
      slab.add_config({std::make_shared<ConstantDelay>(1.0), std::nullopt, 1});
  EXPECT_EQ(slab.add_queue(config), 0u);
  EXPECT_EQ(slab.add_queue(config), 1u);
  EXPECT_EQ(slab.queue_count(), 2u);
  EXPECT_EQ(slab.size(), 0u);
}

TEST(DelayBufferSlab, VictimBlocksAreRecycled) {
  // A queue's release block doubles as it fills and goes back to a free
  // list when it empties, so a second fill of the same depth reuses memory
  // instead of growing the arena.
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  auto fill_and_drain = [&] {
    for (std::uint64_t uid = 0; uid < 100; ++uid) {
      buffer.offer(0, ctx.make_packet(uid), ctx);
    }
    ASSERT_TRUE(buffer.consistent());
    ctx.simulator().run();
    ASSERT_EQ(buffer.size(), 0u);
    ASSERT_TRUE(buffer.consistent());
  };
  fill_and_drain();
  const std::size_t bytes = buffer.memory_bytes();
  fill_and_drain();
  EXPECT_EQ(buffer.memory_bytes(), bytes);
}

TEST(VictimPolicy, ToStringCoversAll) {
  EXPECT_STREQ(to_string(VictimPolicy::kShortestRemaining), "shortest-remaining");
  EXPECT_STREQ(to_string(VictimPolicy::kLongestRemaining), "longest-remaining");
  EXPECT_STREQ(to_string(VictimPolicy::kRandom), "random");
  EXPECT_STREQ(to_string(VictimPolicy::kOldest), "oldest");
}

}  // namespace
}  // namespace tempriv::core
