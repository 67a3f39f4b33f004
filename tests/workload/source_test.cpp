#include "workload/source.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/discipline_spec.h"
#include "metrics/stats.h"

namespace tempriv::workload {
namespace {

struct Fixture {
  sim::Simulator sim;
  crypto::PayloadCodec codec{crypto::Speck64_128::Key{
      1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 121, 98, 76}};
  net::Network net{sim, net::Topology::line(4),
                   core::DisciplineSpec::immediate(),
                   {}, sim::RandomStream(11)};

  struct Recorder final : net::SinkObserver {
    std::vector<std::pair<double, net::Packet>> deliveries;
    void on_delivery(const net::Packet& packet, sim::Time arrival) override {
      deliveries.emplace_back(arrival, packet);
    }
  } recorder;

  Fixture() { net.add_sink_observer(&recorder); }
};

TEST(PeriodicSource, EmitsExactlyCountPacketsAtExactIntervals) {
  Fixture f;
  PeriodicSource source(f.net, f.codec, 0, sim::RandomStream(1), 5.0, 10);
  source.start(2.0);
  f.sim.run();
  EXPECT_EQ(source.packets_created(), 10u);
  ASSERT_EQ(f.recorder.deliveries.size(), 10u);
  // Creation i at 2 + 5i; delivery 3 hops later (tau = 1).
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(f.recorder.deliveries[i].first, 2.0 + 5.0 * i + 3.0);
  }
}

TEST(PeriodicSource, PayloadCarriesEncryptedCreationTimeAndSeq) {
  Fixture f;
  PeriodicSource source(f.net, f.codec, 0, sim::RandomStream(2), 4.0, 3);
  source.start(0.0);
  f.sim.run();
  ASSERT_EQ(f.recorder.deliveries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto opened = f.codec.open(f.recorder.deliveries[i].second.payload);
    ASSERT_TRUE(opened.has_value());
    EXPECT_DOUBLE_EQ(opened->creation_time, 4.0 * i);
    EXPECT_EQ(opened->app_seq, i);
  }
}

TEST(PeriodicSource, ZeroCountEmitsNothing) {
  Fixture f;
  PeriodicSource source(f.net, f.codec, 0, sim::RandomStream(3), 1.0, 0);
  source.start(0.0);
  f.sim.run();
  EXPECT_TRUE(f.recorder.deliveries.empty());
}

TEST(PeriodicSource, ValidatesInterval) {
  Fixture f;
  EXPECT_THROW(PeriodicSource(f.net, f.codec, 0, sim::RandomStream(4), 0.0, 1),
               std::invalid_argument);
}

TEST(PoissonSource, EmitsCountPacketsWithExponentialGaps) {
  Fixture f;
  PoissonSource source(f.net, f.codec, 0, sim::RandomStream(5), 0.5, 2000);
  source.start(0.0);
  f.sim.run();
  EXPECT_EQ(source.packets_created(), 2000u);
  ASSERT_EQ(f.recorder.deliveries.size(), 2000u);
  // Inter-creation gaps must average 1/rate = 2 with variance 4.
  metrics::StreamingStats gaps;
  double prev = 0.0;
  for (const auto& [arrival, packet] : f.recorder.deliveries) {
    const auto opened = f.codec.open(packet.payload);
    ASSERT_TRUE(opened.has_value());
    if (opened->app_seq > 0) gaps.add(opened->creation_time - prev);
    prev = opened->creation_time;
  }
  EXPECT_NEAR(gaps.mean(), 2.0, 0.15);
  EXPECT_NEAR(gaps.variance(), 4.0, 0.6);
}

TEST(PoissonSource, ValidatesRate) {
  Fixture f;
  EXPECT_THROW(PoissonSource(f.net, f.codec, 0, sim::RandomStream(6), 0.0, 1),
               std::invalid_argument);
}

TEST(Source, DistinctSeedsGiveDistinctReadings) {
  Fixture f;
  PeriodicSource a(f.net, f.codec, 0, sim::RandomStream(7), 1.0, 1);
  PeriodicSource b(f.net, f.codec, 1, sim::RandomStream(8), 1.0, 1);
  a.start(0.0);
  b.start(0.0);
  f.sim.run();
  ASSERT_EQ(f.recorder.deliveries.size(), 2u);
  const auto ra = f.codec.open(f.recorder.deliveries[0].second.payload);
  const auto rb = f.codec.open(f.recorder.deliveries[1].second.payload);
  EXPECT_NE(ra->reading, rb->reading);
}

}  // namespace
}  // namespace tempriv::workload
