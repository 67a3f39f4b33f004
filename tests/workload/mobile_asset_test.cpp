#include "workload/mobile_asset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/discipline_spec.h"

namespace tempriv::workload {
namespace {

struct Fixture {
  sim::Simulator sim;
  crypto::PayloadCodec codec{crypto::Speck64_128::Key{
      3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}};
  // 5x5 grid with spacing 2.5 covers a 10x10 field; sink at (0,0).
  net::Network net{sim, net::Topology::grid(5, 5, 2.5),
                   core::DisciplineSpec::immediate(), {}, sim::RandomStream(21)};

  struct Recorder final : net::SinkObserver {
    std::size_t count = 0;
    void on_delivery(const net::Packet&, sim::Time) override { ++count; }
  } recorder;

  Fixture() { net.add_sink_observer(&recorder); }
};

MobileAssetWorkload::Config default_config() {
  MobileAssetWorkload::Config config;
  config.field_side = 10.0;
  config.speed = 0.5;
  config.sense_interval = 5.0;
  config.duration = 300.0;
  return config;
}

TEST(MobileAssetWorkload, GeneratesOneObservationPerEpoch) {
  Fixture f;
  MobileAssetWorkload workload(f.net, f.codec, default_config(),
                               sim::RandomStream(1));
  workload.start();
  f.sim.run();
  // duration / sense_interval epochs, first at t = interval.
  EXPECT_EQ(workload.track().size(), 60u);
  EXPECT_EQ(f.recorder.count, 60u);
}

TEST(MobileAssetWorkload, TrackStaysInsideField) {
  Fixture f;
  MobileAssetWorkload workload(f.net, f.codec, default_config(),
                               sim::RandomStream(2));
  workload.start();
  f.sim.run();
  for (const auto& point : workload.track()) {
    EXPECT_GE(point.x, 0.0);
    EXPECT_LE(point.x, 10.0);
    EXPECT_GE(point.y, 0.0);
    EXPECT_LE(point.y, 10.0);
  }
}

TEST(MobileAssetWorkload, MovementRespectsSpeedLimit) {
  Fixture f;
  MobileAssetWorkload::Config config = default_config();
  config.speed = 0.3;
  MobileAssetWorkload workload(f.net, f.codec, config, sim::RandomStream(3));
  workload.start();
  f.sim.run();
  const auto& track = workload.track();
  for (std::size_t i = 1; i < track.size(); ++i) {
    const double dist = std::hypot(track[i].x - track[i - 1].x,
                                   track[i].y - track[i - 1].y);
    const double dt = track[i].time - track[i - 1].time;
    EXPECT_LE(dist, config.speed * dt + 1e-9);
  }
}

TEST(MobileAssetWorkload, ReportsNearestSensor) {
  Fixture f;
  MobileAssetWorkload workload(f.net, f.codec, default_config(),
                               sim::RandomStream(4));
  workload.start();
  f.sim.run();
  const net::Topology& topo = f.net.topology();
  for (const auto& point : workload.track()) {
    ASSERT_NE(point.sensor, net::kInvalidNode);
    ASSERT_NE(point.sensor, topo.sink());
    const double claimed = std::hypot(topo.position(point.sensor).x - point.x,
                                      topo.position(point.sensor).y - point.y);
    for (net::NodeId other = 0; other < topo.node_count(); ++other) {
      if (other == topo.sink()) continue;
      const double d = std::hypot(topo.position(other).x - point.x,
                                  topo.position(other).y - point.y);
      EXPECT_GE(d + 1e-9, claimed);
    }
  }
}

TEST(MobileAssetWorkload, AssetActuallyMoves) {
  Fixture f;
  MobileAssetWorkload workload(f.net, f.codec, default_config(),
                               sim::RandomStream(5));
  workload.start();
  f.sim.run();
  const auto& track = workload.track();
  ASSERT_GE(track.size(), 2u);
  double total_distance = 0.0;
  for (std::size_t i = 1; i < track.size(); ++i) {
    total_distance += std::hypot(track[i].x - track[i - 1].x,
                                 track[i].y - track[i - 1].y);
  }
  EXPECT_GT(total_distance, 10.0);
}

TEST(MobileAssetWorkload, DifferentSeedsDifferentTracks) {
  Fixture f;
  MobileAssetWorkload a(f.net, f.codec, default_config(), sim::RandomStream(6));
  MobileAssetWorkload b(f.net, f.codec, default_config(), sim::RandomStream(7));
  a.start();
  b.start();
  f.sim.run();
  ASSERT_EQ(a.track().size(), b.track().size());
  bool diverged = false;
  for (std::size_t i = 0; i < a.track().size(); ++i) {
    if (a.track()[i].x != b.track()[i].x) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(MobileAssetWorkload, ValidatesConfig) {
  Fixture f;
  MobileAssetWorkload::Config bad = default_config();
  bad.speed = 0.0;
  EXPECT_THROW(MobileAssetWorkload(f.net, f.codec, bad, sim::RandomStream(8)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::workload
