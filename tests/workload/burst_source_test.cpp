#include "workload/burst_source.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/discipline_spec.h"
#include "metrics/percentile.h"
#include "metrics/stats.h"

namespace tempriv::workload {
namespace {

struct Fixture {
  sim::Simulator sim;
  crypto::PayloadCodec codec{crypto::Speck64_128::Key{
      6, 6, 6, 2, 2, 2, 9, 9, 9, 4, 4, 4, 8, 8, 8, 1}};
  net::Network net{sim, net::Topology::line(3),
                   core::DisciplineSpec::immediate(),
                   {}, sim::RandomStream(77)};

  struct Recorder final : net::SinkObserver {
    std::vector<double> creations;
    const crypto::PayloadCodec& codec;
    explicit Recorder(const crypto::PayloadCodec& c) : codec(c) {}
    void on_delivery(const net::Packet& packet, sim::Time) override {
      creations.push_back(codec.open(packet.payload)->creation_time);
    }
  } recorder{codec};

  Fixture() { net.add_sink_observer(&recorder); }
};

BurstSource::Config default_config() {
  BurstSource::Config config;
  config.burst_rate = 2.0;
  config.mean_on_time = 10.0;
  config.mean_off_time = 40.0;
  config.count = 3000;
  return config;
}

TEST(BurstSource, EmitsExactlyCountPackets) {
  Fixture f;
  BurstSource source(f.net, f.codec, 0, sim::RandomStream(1), default_config());
  source.start(0.0);
  f.sim.run();
  EXPECT_EQ(source.packets_created(), 3000u);
  EXPECT_EQ(f.recorder.creations.size(), 3000u);
}

TEST(BurstSource, LongRunRateMatchesConfig) {
  Fixture f;
  const BurstSource::Config config = default_config();
  BurstSource source(f.net, f.codec, 0, sim::RandomStream(2), config);
  source.start(0.0);
  f.sim.run();
  const double span = f.recorder.creations.back() - f.recorder.creations.front();
  const double measured_rate = static_cast<double>(f.recorder.creations.size() - 1) / span;
  // Long-run average rate: burst_rate * on / (on + off).
  const double average_rate = config.burst_rate * config.mean_on_time /
                              (config.mean_on_time + config.mean_off_time);
  EXPECT_NEAR(measured_rate, average_rate, average_rate * 0.15);
}

TEST(BurstSource, TrafficIsActuallyBursty) {
  // The squared coefficient of variation of inter-creation gaps must be
  // well above 1 (Poisson); the OFF periods create the heavy gap tail.
  Fixture f;
  BurstSource source(f.net, f.codec, 0, sim::RandomStream(3), default_config());
  source.start(0.0);
  f.sim.run();
  metrics::StreamingStats gaps;
  for (std::size_t i = 1; i < f.recorder.creations.size(); ++i) {
    gaps.add(f.recorder.creations[i] - f.recorder.creations[i - 1]);
  }
  const double scv = gaps.variance() / (gaps.mean() * gaps.mean());
  EXPECT_GT(scv, 3.0);
}

TEST(BurstSource, WithinBurstGapsAreShort) {
  Fixture f;
  BurstSource source(f.net, f.codec, 0, sim::RandomStream(4), default_config());
  source.start(0.0);
  f.sim.run();
  // At burst_rate = 2 most in-burst gaps are < 2 time units; the median
  // gap must be in-burst-sized even though the mean is inflated by OFF
  // periods.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < f.recorder.creations.size(); ++i) {
    gaps.push_back(f.recorder.creations[i] - f.recorder.creations[i - 1]);
  }
  EXPECT_LT(metrics::percentile(gaps, 0.5), 2.0);
  EXPECT_GT(metrics::percentile(gaps, 0.99), 5.0);
}

TEST(BurstSource, ValidatesConfig) {
  Fixture f;
  BurstSource::Config bad = default_config();
  bad.burst_rate = 0.0;
  EXPECT_THROW(BurstSource(f.net, f.codec, 0, sim::RandomStream(5), bad),
               std::invalid_argument);
}

TEST(BurstSource, ZeroCountEmitsNothing) {
  Fixture f;
  BurstSource::Config config = default_config();
  config.count = 0;
  BurstSource source(f.net, f.codec, 0, sim::RandomStream(6), config);
  source.start(0.0);
  f.sim.run();
  EXPECT_TRUE(f.recorder.creations.empty());
}

}  // namespace
}  // namespace tempriv::workload
