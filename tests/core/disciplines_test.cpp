// The paper's buffering arrival rules as the network runs them: a
// DisciplineSpec's queue configuration in a one-queue DelayBuffer, driven
// through DelayBuffer::offer() — the entry point Network::handle and
// ErlangTunedRcad call for every arrival.

#include "core/delay_buffer.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/discipline_spec.h"
#include "test_context.h"

namespace tempriv::core {
namespace {

using testing::TestContext;
using Admission = DelayBuffer::Admission;

/// The queue a Network gives a node configured by `spec`.
DelayBuffer queue_of(const DisciplineSpec& spec) {
  return DelayBuffer(spec.queue_config());
}

TEST(UnlimitedDelaying, HoldsEveryPacketUntilItsDelayExpires) {
  TestContext ctx;
  DelayBuffer buffer =
      queue_of(DisciplineSpec::unlimited(std::make_shared<ConstantDelay>(3.0)));
  for (std::uint64_t uid = 0; uid < 100; ++uid) {
    EXPECT_EQ(buffer.offer(0, ctx.make_packet(uid), ctx), Admission::kAdmitted);
  }
  EXPECT_EQ(buffer.size(), 100u);  // no capacity limit
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 100u);
  EXPECT_EQ(buffer.size(), 0u);
  for (const auto& [at, packet] : ctx.transmitted()) EXPECT_DOUBLE_EQ(at, 3.0);
}

TEST(DropTailDelaying, DropsWhenFull) {
  TestContext ctx;
  DelayBuffer buffer = queue_of(
      DisciplineSpec::droptail(std::make_shared<ConstantDelay>(100.0), 10));
  int admitted = 0;
  int dropped = 0;
  for (std::uint64_t uid = 0; uid < 15; ++uid) {
    const Admission outcome = buffer.offer(0, ctx.make_packet(uid), ctx);
    ASSERT_NE(outcome, Admission::kPreempted);
    (outcome == Admission::kAdmitted ? admitted : dropped) += 1;
  }
  EXPECT_EQ(buffer.size(), 10u);
  EXPECT_EQ(admitted, 10);
  EXPECT_EQ(dropped, 5);
  EXPECT_TRUE(ctx.transmitted().empty());  // a drop transmits nothing
  ctx.simulator().run();
  // Only the 10 admitted packets are ever transmitted.
  EXPECT_EQ(ctx.transmitted().size(), 10u);
}

TEST(DropTailDelaying, ValidatesCapacity) {
  EXPECT_THROW(DisciplineSpec::droptail(std::make_shared<NoDelay>(), 0),
               std::invalid_argument);
  EXPECT_THROW(DelayBuffer(DelayBuffer::QueueConfig{
                   std::make_shared<NoDelay>(), std::nullopt, 0}),
               std::invalid_argument);
}

TEST(RcadDiscipline, PreemptsInsteadOfDropping) {
  TestContext ctx;
  DelayBuffer buffer =
      queue_of(DisciplineSpec::rcad(std::make_shared<ConstantDelay>(100.0), 10));
  int preempted = 0;
  for (std::uint64_t uid = 0; uid < 15; ++uid) {
    const Admission outcome = buffer.offer(0, ctx.make_packet(uid), ctx);
    ASSERT_NE(outcome, Admission::kDropped);
    preempted += outcome == Admission::kPreempted;
  }
  EXPECT_EQ(buffer.size(), 10u);  // never exceeds capacity
  EXPECT_EQ(preempted, 5);
  // 5 victims were transmitted immediately (at t = 0).
  ASSERT_EQ(ctx.transmitted().size(), 5u);
  for (const auto& [at, packet] : ctx.transmitted()) EXPECT_DOUBLE_EQ(at, 0.0);
  ctx.simulator().run();
  // Every packet is eventually transmitted exactly once: 15 total.
  EXPECT_EQ(ctx.transmitted().size(), 15u);
}

TEST(RcadDiscipline, VictimIsShortestRemainingDelay) {
  TestContext ctx;
  DelayBuffer buffer = queue_of(DisciplineSpec::rcad_exponential(50.0, 3));
  for (std::uint64_t uid = 0; uid < 3; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  // The held packet closest to its release is the one RCAD must eject.
  std::uint64_t expected_victim = 0;
  double earliest = 1e300;
  for (const DelayBuffer::Held& held : buffer.snapshot()) {
    if (held.release_time < earliest) {
      earliest = held.release_time;
      expected_victim = held.packet.uid;
    }
  }
  EXPECT_EQ(buffer.offer(0, ctx.make_packet(3), ctx), Admission::kPreempted);
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, expected_victim);
  EXPECT_EQ(buffer.size(), 3u);
}

TEST(RcadDiscipline, VictimIsDrawnAndSentBeforeTheArrivalsDelayDraw) {
  // At a full buffer the RNG sees the victim draw (kRandom), then the
  // victim's transmission (the link's jitter draw), then the arrival's
  // delay draw — the order the golden outputs were recorded in.
  TestContext ctx(11, /*link_draws=*/true);
  const auto delay = std::make_shared<ExponentialDelay>(40.0);
  DelayBuffer buffer =
      queue_of(DisciplineSpec::rcad(delay, 4, VictimPolicy::kRandom));
  for (std::uint64_t uid = 0; uid < 4; ++uid) {
    buffer.offer(0, ctx.make_packet(uid), ctx);
  }
  const std::vector<DelayBuffer::Held> before = buffer.snapshot();
  sim::RandomStream replay = ctx.rng();
  const auto victim_index = static_cast<std::size_t>(replay.uniform_index(4));
  replay.uniform(0.0, 1.0);  // the victim's link draw
  const double arrival_delay = delay->sample(replay);

  EXPECT_EQ(buffer.offer(0, ctx.make_packet(4), ctx), Admission::kPreempted);
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  EXPECT_EQ(ctx.transmitted()[0].second.uid, before[victim_index].packet.uid);
  EXPECT_EQ(buffer.snapshot().back().packet.uid, 4u);
  EXPECT_EQ(buffer.snapshot().back().release_time, arrival_delay);
}

TEST(RcadDiscipline, NoPreemptionBelowCapacity) {
  TestContext ctx;
  DelayBuffer buffer = queue_of(DisciplineSpec::rcad_exponential(5.0, 10));
  for (std::uint64_t uid = 0; uid < 10; ++uid) {
    EXPECT_EQ(buffer.offer(0, ctx.make_packet(uid), ctx), Admission::kAdmitted);
  }
  EXPECT_TRUE(ctx.transmitted().empty());
}

TEST(RcadDiscipline, EffectiveDelayShrinksUnderLoad) {
  // The adaptive-µ property: at overload the realized mean delay collapses
  // from 1/µ toward k/λ (here: 10 slots, deterministic 1-unit arrivals).
  TestContext ctx;
  DelayBuffer buffer = queue_of(DisciplineSpec::rcad_exponential(100.0, 10));
  constexpr int kPackets = 300;
  int preempted = 0;
  for (int i = 0; i < kPackets; ++i) {
    ctx.simulator().schedule_at(static_cast<double>(i), [&, i] {
      preempted += buffer.offer(0, ctx.make_packet(static_cast<std::uint64_t>(i)),
                                ctx) == Admission::kPreempted;
    });
  }
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), static_cast<std::size_t>(kPackets));
  EXPECT_GT(preempted, 200);  // heavy preemption
  // Mean realized holding time ~ k/λ = 10, far below the configured 100.
  double total_delay = 0.0;
  for (const auto& [at, packet] : ctx.transmitted()) {
    total_delay += at - static_cast<double>(packet.uid);
  }
  const double mean_delay = total_delay / kPackets;
  EXPECT_LT(mean_delay, 25.0);
  EXPECT_GT(mean_delay, 2.0);
}

TEST(RcadDiscipline, ValidatesCapacity) {
  EXPECT_THROW(DisciplineSpec::rcad(std::make_shared<NoDelay>(), 0),
               std::invalid_argument);
  EXPECT_THROW(DelayBuffer(DelayBuffer::QueueConfig{
                   std::make_shared<NoDelay>(),
                   VictimPolicy::kShortestRemaining, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::core
