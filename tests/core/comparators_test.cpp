#include "core/comparators.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/delay_distribution.h"
#include "metrics/stats.h"
#include "test_context.h"

namespace tempriv::core {
namespace {

using testing::TestContext;

TEST(FifoDelaying, PreservesOrderAlways) {
  TestContext ctx;
  FifoDelaying fifo(std::make_unique<ExponentialDelay>(10.0));
  for (std::uint64_t uid = 0; uid < 50; ++uid) {
    fifo.on_packet(ctx.make_packet(uid), ctx);
  }
  ctx.simulator().run();
  ASSERT_EQ(ctx.transmitted().size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(ctx.transmitted()[i].second.uid, i);  // strict FIFO
  }
}

TEST(FifoDelaying, ServesOneAtATime) {
  // Constant service 5: packet i (all arriving at t = 0) departs at 5(i+1).
  TestContext ctx;
  FifoDelaying fifo(std::make_unique<ConstantDelay>(5.0));
  for (std::uint64_t uid = 0; uid < 4; ++uid) {
    fifo.on_packet(ctx.make_packet(uid), ctx);
  }
  EXPECT_EQ(fifo.buffered(), 4u);
  ctx.simulator().run();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(ctx.transmitted()[i].first, 5.0 * (i + 1));
  }
  EXPECT_EQ(fifo.buffered(), 0u);
}

TEST(FifoDelaying, IdleServerRestartsOnNextArrival) {
  TestContext ctx;
  FifoDelaying fifo(std::make_unique<ConstantDelay>(2.0));
  fifo.on_packet(ctx.make_packet(0), ctx);
  ctx.simulator().run();
  ASSERT_EQ(ctx.transmitted().size(), 1u);
  // Much later, a second packet: service starts fresh, not from the past.
  ctx.simulator().schedule_at(100.0, [&] {
    fifo.on_packet(ctx.make_packet(1), ctx);
  });
  ctx.simulator().run();
  ASSERT_EQ(ctx.transmitted().size(), 2u);
  EXPECT_DOUBLE_EQ(ctx.transmitted()[1].first, 102.0);
}

TEST(FifoDelaying, MM1SojournMatchesTheory) {
  // M/M/1 with λ = 0.1, µ = 0.2: E[T] = 1/(µ−λ) = 10.
  TestContext ctx;
  FifoDelaying fifo(std::make_unique<ExponentialDelay>(5.0));  // 1/µ = 5
  constexpr int kPackets = 20000;
  double at = 0.0;
  std::vector<double> arrivals;
  sim::RandomStream traffic(7);
  for (int i = 0; i < kPackets; ++i) {
    at += traffic.exponential_rate(0.1);
    arrivals.push_back(at);
    ctx.simulator().schedule_at(at, [&fifo, &ctx, i] {
      fifo.on_packet(ctx.make_packet(static_cast<std::uint64_t>(i)), ctx);
    });
  }
  ctx.simulator().run();
  metrics::StreamingStats sojourn;
  for (const auto& [departed, packet] : ctx.transmitted()) {
    sojourn.add(departed - arrivals[packet.uid]);
  }
  EXPECT_NEAR(sojourn.mean(), 10.0, 0.7);
}

TEST(FifoDelaying, ValidatesDistribution) {
  EXPECT_THROW(FifoDelaying(nullptr), std::invalid_argument);
}

TEST(TimedPoolMix, FlushesAllButPoolKeep) {
  TestContext ctx;
  TimedPoolMix mix(10.0, 2);
  for (std::uint64_t uid = 0; uid < 7; ++uid) {
    mix.on_packet(ctx.make_packet(uid), ctx);
  }
  EXPECT_EQ(mix.buffered(), 7u);
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 5u);  // 7 - pool_keep
  EXPECT_EQ(mix.buffered(), 2u);            // retained pool
  EXPECT_EQ(mix.flushes(), 1u);
  for (const auto& [at, packet] : ctx.transmitted()) {
    EXPECT_DOUBLE_EQ(at, 10.0);  // single batch at the flush instant
  }
}

TEST(TimedPoolMix, ZeroKeepDeliversEverything) {
  TestContext ctx;
  TimedPoolMix mix(5.0, 0);
  for (std::uint64_t uid = 0; uid < 10; ++uid) {
    mix.on_packet(ctx.make_packet(uid), ctx);
  }
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 10u);
  EXPECT_EQ(mix.buffered(), 0u);
}

TEST(TimedPoolMix, RetainedPacketsLeaveOnLaterFlushes) {
  TestContext ctx;
  TimedPoolMix mix(5.0, 1);
  mix.on_packet(ctx.make_packet(0), ctx);
  mix.on_packet(ctx.make_packet(1), ctx);
  ctx.simulator().run();  // first flush at t=5: one of {0,1} leaves
  EXPECT_EQ(ctx.transmitted().size(), 1u);
  // New arrival re-arms the timer; the next flush releases one more.
  ctx.simulator().schedule_at(20.0, [&] {
    mix.on_packet(ctx.make_packet(2), ctx);
  });
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 2u);
  EXPECT_EQ(mix.buffered(), 1u);
  EXPECT_EQ(mix.flushes(), 2u);
}

TEST(TimedPoolMix, FlushOrderIsRandomized) {
  // Over many trials, the first transmitted packet must not always be the
  // first arrival (batch output order carries no arrival information).
  int first_wins = 0;
  for (int trial = 0; trial < 100; ++trial) {
    TestContext ctx(static_cast<std::uint64_t>(trial));
    TimedPoolMix mix(1.0, 0);
    for (std::uint64_t uid = 0; uid < 4; ++uid) {
      mix.on_packet(ctx.make_packet(uid), ctx);
    }
    ctx.simulator().run();
    if (ctx.transmitted().front().second.uid == 0) ++first_wins;
  }
  EXPECT_GT(first_wins, 5);
  EXPECT_LT(first_wins, 60);
}

TEST(TimedPoolMix, SimulationTerminatesWithIdlePool) {
  // A pool holding fewer than pool_keep packets must not spin the clock.
  TestContext ctx;
  TimedPoolMix mix(1.0, 5);
  mix.on_packet(ctx.make_packet(0), ctx);
  ctx.simulator().run();
  EXPECT_EQ(ctx.transmitted().size(), 0u);
  EXPECT_EQ(mix.buffered(), 1u);
  EXPECT_LT(ctx.simulator().now(), 2.0);  // one tick, then quiescent
}

TEST(TimedPoolMix, ValidatesInterval) {
  EXPECT_THROW(TimedPoolMix(0.0, 1), std::invalid_argument);
}

TEST(ComparatorFactories, ProduceWorkingDisciplines) {
  auto fifo = fifo_exponential_factory(10.0)();
  EXPECT_NE(dynamic_cast<FifoDelaying*>(fifo.get()), nullptr);
  auto mix = timed_pool_mix_factory(5.0, 3)();
  EXPECT_NE(dynamic_cast<TimedPoolMix*>(mix.get()), nullptr);
}

}  // namespace
}  // namespace tempriv::core
