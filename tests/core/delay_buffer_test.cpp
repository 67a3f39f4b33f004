#include "core/delay_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "test_context.h"

namespace tempriv::core {
namespace {

using testing::TestContext;

TEST(DelayBuffer, RequiresDistribution) {
  EXPECT_THROW(DelayBuffer(nullptr), std::invalid_argument);
}

TEST(DelayBuffer, ReleasesAfterSampledDelay) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(4.0));
  buffer.admit(ctx.make_packet(1), ctx);
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
  buffer.admit(ctx.make_packet(7), ctx);
  const auto held = buffer.snapshot();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_DOUBLE_EQ(held[0].enqueue_time, 0.0);
  EXPECT_DOUBLE_EQ(held[0].release_time, 10.0);
  EXPECT_EQ(held[0].packet.uid, 7u);
}

TEST(DelayBuffer, SnapshotPreservesAdmissionOrder) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(5.0));
  for (std::uint64_t uid = 0; uid < 8; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
  }
  // Ejecting from the middle must keep the remaining relative order, exactly
  // like the pre-slot-pool vector erase did.
  buffer.eject(3, ctx);
  buffer.eject(0, ctx);
  const auto held = buffer.snapshot();
  ASSERT_EQ(held.size(), 6u);
  const std::uint64_t expected[] = {1, 2, 4, 5, 6, 7};
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].packet.uid, expected[i]);
  }
}

TEST(DelayBuffer, EjectCancelsScheduledRelease) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(4.0));
  buffer.admit(ctx.make_packet(1), ctx);
  const net::Packet packet = buffer.eject(0, ctx);
  EXPECT_EQ(packet.uid, 1u);
  EXPECT_EQ(buffer.size(), 0u);
  ctx.simulator().run();
  // The release event was cancelled: nothing transmits.
  EXPECT_TRUE(ctx.transmitted().empty());
}

TEST(DelayBuffer, EjectValidatesIndex) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(1.0));
  EXPECT_THROW(buffer.eject(0, ctx), std::out_of_range);
}

TEST(DelayBuffer, SlotsAreRecycledAcrossAdmissions) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(1.0));
  buffer.reserve(4);
  // Churn far more packets than the working set; every one must come back
  // out exactly once even though slots (and their release events) recycle.
  for (std::uint64_t uid = 0; uid < 100; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
    if (buffer.size() > 3) buffer.preempt(ctx);
    ctx.simulator().run_until(ctx.simulator().now() + 0.25);
  }
  ctx.simulator().run();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DelayBuffer, MultiplePacketsReleaseIndependently) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(5.0));
  for (std::uint64_t uid = 0; uid < 20; ++uid) {
    buffer.admit(ctx.make_packet(uid), ctx);
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
    buffer.admit(ctx.make_packet(uid), ctx);
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
    buffer.admit(ctx.make_packet(uid), ctx);
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
    buffer.admit(ctx.make_packet(uid), ctx);
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
  buffer.admit(ctx.make_packet(0), ctx);
  ctx.simulator().schedule_after(1.0, [&] {
    buffer.admit(ctx.make_packet(1), ctx);
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
    buffer.admit(ctx.make_packet(uid), ctx);
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
      select_victim({}, VictimPolicy::kShortestRemaining, 0.0, ctx.rng()),
      std::invalid_argument);
}

// The indexed preempt() must pick exactly the packet the reference linear
// scan picks — for every policy, across interleaved admits/releases. This is
// the determinism contract that keeps the paper CSVs byte-identical.
class PreemptMatchesReference
    : public ::testing::TestWithParam<VictimPolicy> {};

TEST_P(PreemptMatchesReference, AcrossChurn) {
  const VictimPolicy policy = GetParam();
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0), policy);
  std::uint64_t uid = 0;
  for (int round = 0; round < 200; ++round) {
    buffer.admit(ctx.make_packet(uid++), ctx);
    if (buffer.size() >= 6) {
      // Reference choice on a snapshot, with a cloned RNG so preempt() sees
      // the same uniform draw the reference consumed.
      const auto held = buffer.snapshot();
      sim::RandomStream reference_rng = ctx.rng();
      const std::size_t expected_index = select_victim(
          held, policy, ctx.simulator().now(), reference_rng);
      const std::uint64_t expected_uid = held[expected_index].packet.uid;
      const net::Packet victim = buffer.preempt(ctx);
      EXPECT_EQ(victim.uid, expected_uid) << "round " << round;
    }
    // Let some natural releases fire so the structures churn.
    ctx.simulator().run_until(ctx.simulator().now() + 1.5);
  }
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

TEST(DelayBufferPreempt, ThrowsOnEmptyBuffer) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(1.0));
  EXPECT_THROW(buffer.preempt(ctx), std::logic_error);
}

TEST(DelayBufferPreempt, CancelsTheVictimsRelease) {
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ConstantDelay>(5.0),
                     VictimPolicy::kShortestRemaining);
  buffer.admit(ctx.make_packet(0), ctx);
  buffer.admit(ctx.make_packet(1), ctx);
  const net::Packet victim = buffer.preempt(ctx);
  EXPECT_EQ(victim.uid, 0u);  // equal release times: first admitted wins
  ctx.simulator().run();
  // Only the survivor's release fires.
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, 1u);
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
// that never preempt — mixing admit, preempt, eject and fired releases.
// Each queue must behave exactly like its own reference model: preempt()
// picks what select_victim (the linear-scan oracle, fed the same RNG draw)
// picks, eject() takes the indexed packet, releases leave from the queue
// that admitted them, and admission order survives every removal.
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
        {std::make_shared<ExponentialDelay>(8.0), victim, DelayBuffer::kUnbounded}));
  }
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
  std::size_t preempts = 0, ejects = 0;
  for (int step = 0; step < 6000; ++step) {
    const auto q = static_cast<DelayBuffer::QueueId>(ops.uniform_index(kQueues));
    QueueContext& c = *ctx[q];
    const double op = ops.uniform(0.0, 1.0);
    const bool preemptive = slab.config(q).victim.has_value();
    if (op < 0.55 || slab.size(q) == 0) {
      net::Packet packet;
      packet.uid = next_uid++;
      model[q].push_back(packet.uid);
      slab.admit(q, std::move(packet), c);
    } else if (op < 0.8 && preemptive) {
      const auto held = slab.snapshot(q);
      sim::RandomStream oracle_rng = c.rng();
      const std::size_t expected = select_victim(held, *slab.config(q).victim,
                                                 sim.now(), oracle_rng);
      const net::Packet victim = slab.preempt(q, c);
      ASSERT_EQ(victim.uid, held[expected].packet.uid) << "step " << step;
      forget(q, victim.uid);
      ++preempts;
    } else if (op < 0.9) {
      const std::size_t index = ops.uniform_index(slab.size(q));
      const net::Packet ejected = slab.eject(q, index, c);
      ASSERT_EQ(ejected.uid, model[q][index]) << "step " << step;
      forget(q, ejected.uid);
      ++ejects;
    } else {
      released.clear();
      sim.run_until(sim.now() + ops.uniform(0.0, 3.0));
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
  EXPECT_GT(ejects, 200u);
  released.clear();
  sim.run();
  for (const auto& [from, uid] : released) forget(from, uid);
  for (const auto& uids : model) EXPECT_TRUE(uids.empty());
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_TRUE(slab.consistent());
}

TEST(DelayBufferSlab, QueuesThatNeverPreemptRejectPreempt) {
  TestContext ctx;
  DelayBuffer buffer(DelayBuffer::QueueConfig{
      std::make_shared<ConstantDelay>(1.0), std::nullopt, 3});
  buffer.admit(ctx.make_packet(0), ctx);
  EXPECT_THROW(buffer.preempt(ctx), std::logic_error);
  EXPECT_EQ(buffer.eject(0, ctx).uid, 0u);  // eject still works
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
  // A queue's victim block doubles as it fills and goes back to a free list
  // when it empties, so a second fill of the same depth reuses memory
  // instead of growing the arena.
  TestContext ctx;
  DelayBuffer buffer(std::make_unique<ExponentialDelay>(10.0));
  auto fill_and_drain = [&] {
    for (std::uint64_t uid = 0; uid < 100; ++uid) {
      buffer.admit(ctx.make_packet(uid), ctx);
    }
    ASSERT_TRUE(buffer.consistent());
    while (buffer.size() > 0) buffer.preempt(ctx);
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
