// Property sweep: RCAD and drop-tail invariants under randomized traffic,
// across a grid of (capacity, traffic intensity, delay mean) operating
// points, driven through DelayBuffer::offer() as the network drives it.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/delay_buffer.h"
#include "core/discipline_spec.h"
#include "test_context.h"

namespace tempriv::core {
namespace {

using testing::one_queue;
using testing::TestContext;
using Admission = DelayBuffer::Admission;

class RcadPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t /*capacity*/, double /*interarrival*/,
                     double /*mean_delay*/>> {};

TEST_P(RcadPropertyTest, InvariantsHoldUnderRandomTraffic) {
  const auto [capacity, interarrival, mean_delay] = GetParam();
  TestContext ctx(capacity * 1000 +
                  static_cast<std::uint64_t>(interarrival * 10));
  DelayBuffer rcad = one_queue(
      DisciplineSpec::rcad_exponential(mean_delay, capacity).queue_config());
  std::uint64_t drops = 0;

  constexpr int kPackets = 2000;
  sim::RandomStream traffic(99);
  double at = 0.0;
  std::size_t max_buffered = 0;
  for (int i = 0; i < kPackets; ++i) {
    at += traffic.exponential_mean(interarrival);
    ctx.simulator().schedule_at(at, [&rcad, &ctx, &max_buffered, &drops, i] {
      drops += rcad.offer(0, ctx.make_packet(static_cast<std::uint64_t>(i)),
                          ctx) == Admission::kDropped;
      max_buffered = std::max(max_buffered, rcad.size());
    });
  }
  ctx.simulator().run();

  // Invariant 1: the buffer never exceeds its capacity.
  EXPECT_LE(max_buffered, capacity);
  // Invariant 2: conservation — every packet transmitted exactly once.
  EXPECT_EQ(ctx.transmitted().size(), static_cast<std::size_t>(kPackets));
  EXPECT_EQ(rcad.size(), 0u);
  // Invariant 3: RCAD never drops.
  EXPECT_EQ(drops, 0u);
  // Invariant 4: each transmitted uid is unique.
  std::vector<bool> seen(kPackets, false);
  for (const auto& [time, packet] : ctx.transmitted()) {
    ASSERT_LT(packet.uid, static_cast<std::uint64_t>(kPackets));
    EXPECT_FALSE(seen[packet.uid]) << "duplicate transmission " << packet.uid;
    seen[packet.uid] = true;
  }
  // Invariant 5: transmissions never precede arrivals (causality). The
  // i-th packet arrives at its scheduled time; its transmit time must not
  // be earlier. Verified via the simulator clock ordering of transmit
  // records, which are appended in non-decreasing time order.
  for (std::size_t i = 1; i < ctx.transmitted().size(); ++i) {
    EXPECT_GE(ctx.transmitted()[i].first, ctx.transmitted()[i - 1].first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, RcadPropertyTest,
    ::testing::Combine(
        ::testing::Values(std::size_t{1}, std::size_t{3}, std::size_t{10},
                          std::size_t{32}),
        ::testing::Values(0.5, 2.0, 10.0),   // inter-arrival
        ::testing::Values(5.0, 30.0)));      // mean privacy delay

class DropTailPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(DropTailPropertyTest, ConservationWithDrops) {
  const auto [capacity, interarrival] = GetParam();
  TestContext ctx(7);
  DelayBuffer droptail = one_queue(
      DisciplineSpec::droptail_exponential(20.0, capacity).queue_config());
  std::uint64_t drops = 0;
  constexpr int kPackets = 2000;
  sim::RandomStream traffic(5);
  double at = 0.0;
  for (int i = 0; i < kPackets; ++i) {
    at += traffic.exponential_mean(interarrival);
    ctx.simulator().schedule_at(at, [&droptail, &ctx, &drops, i] {
      const Admission outcome = droptail.offer(
          0, ctx.make_packet(static_cast<std::uint64_t>(i)), ctx);
      EXPECT_NE(outcome, Admission::kPreempted);
      drops += outcome == Admission::kDropped;
    });
  }
  ctx.simulator().run();
  // transmitted + dropped = offered; buffer drains completely.
  EXPECT_EQ(ctx.transmitted().size() + drops,
            static_cast<std::size_t>(kPackets));
  EXPECT_EQ(droptail.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, DropTailPropertyTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{20}),
                       ::testing::Values(0.5, 4.0)));

}  // namespace
}  // namespace tempriv::core
