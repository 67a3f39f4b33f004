#include "net/tracer.h"

#include <gtest/gtest.h>

#include "core/discipline_spec.h"
#include "crypto/payload.h"

namespace tempriv::net {
namespace {

crypto::PayloadCodec& codec() {
  static crypto::PayloadCodec instance(crypto::Speck64_128::Key{
      4, 4, 4, 4, 2, 2, 2, 2, 7, 7, 7, 7, 5, 5, 5, 5});
  return instance;
}

TEST(PacketTracer, RecordsFullPathOnLineTopology) {
  sim::Simulator sim;
  Network network(sim, Topology::line(5), core::DisciplineSpec::immediate(), {},
                  sim::RandomStream(1));
  PacketTracer tracer(network);
  const std::uint64_t uid =
      network.originate(0, codec().seal({0.0, 0, 0.0}, 0));
  sim.run();
  EXPECT_EQ(tracer.path(uid), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(tracer.transmissions(), 4u);
  EXPECT_EQ(tracer.packets_traced(), 1u);
}

TEST(PacketTracer, HopTimesReflectTransmissionDelay) {
  sim::Simulator sim;
  Network network(sim, Topology::line(4), core::DisciplineSpec::immediate(),
                  {.hop_tx_delay = 2.0}, sim::RandomStream(1));
  PacketTracer tracer(network);
  const std::uint64_t uid =
      network.originate(0, codec().seal({0.0, 0, 0.0}, 0));
  sim.run();
  const auto& hops = tracer.hops(uid);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_DOUBLE_EQ(hops[0].at, 0.0);
  EXPECT_DOUBLE_EQ(hops[1].at, 2.0);
  EXPECT_DOUBLE_EQ(hops[2].at, 4.0);
}

TEST(PacketTracer, HoldingTimesExposeDelaying) {
  sim::Simulator sim;
  Network network(sim, Topology::line(4),
                  core::DisciplineSpec::unlimited(
                      std::make_shared<core::ConstantDelay>(7.0)),
                  {}, sim::RandomStream(1));
  PacketTracer tracer(network);
  const std::uint64_t uid =
      network.originate(0, codec().seal({0.0, 0, 0.0}, 0));
  sim.run();
  const auto holding = tracer.holding_times(uid);
  ASSERT_EQ(holding.size(), 3u);
  EXPECT_DOUBLE_EQ(holding[0], 0.0);  // origin holding not observable
  EXPECT_DOUBLE_EQ(holding[1], 7.0);  // each forwarder held 7 units
  EXPECT_DOUBLE_EQ(holding[2], 7.0);
}

TEST(PacketTracer, UnknownUidYieldsEmpty) {
  sim::Simulator sim;
  Network network(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
                  sim::RandomStream(1));
  PacketTracer tracer(network);
  EXPECT_TRUE(tracer.hops(42).empty());
  EXPECT_TRUE(tracer.path(42).empty());
  EXPECT_TRUE(tracer.holding_times(42).empty());
}

TEST(PacketTracer, UnknownUidResultsAreIndependentValues) {
  // Regression: hops() used to return a reference to one shared empty
  // vector for every unknown uid, so results for different uids aliased
  // each other. By-value results must be independently owned.
  sim::Simulator sim;
  Network network(sim, Topology::line(3), core::DisciplineSpec::immediate(), {},
                  sim::RandomStream(1));
  PacketTracer tracer(network);
  auto a = tracer.hops(41);
  auto b = tracer.hops(42);
  a.push_back({0, 1, 0.0});  // mutating one result...
  EXPECT_TRUE(b.empty());    // ...must not leak into the other
  EXPECT_TRUE(tracer.hops(42).empty());
}

TEST(PacketTracer, HopsSnapshotSurvivesLaterTracing) {
  // Regression companion: a hops() result taken mid-run must stay valid and
  // unchanged while the tracer's internal arena grows under later packets.
  sim::Simulator sim;
  Network network(sim, Topology::line(6), core::DisciplineSpec::immediate(), {},
                  sim::RandomStream(1));
  PacketTracer tracer(network);
  const std::uint64_t first =
      network.originate(0, codec().seal({0.0, 0, 0.0}, 0));
  sim.run();
  const auto snapshot = tracer.hops(first);
  ASSERT_EQ(snapshot.size(), 5u);
  for (std::uint32_t seq = 1; seq <= 64; ++seq) {
    network.originate(0, codec().seal({0.0, seq, 0.0}, 0));
  }
  sim.run();
  EXPECT_EQ(tracer.packets_traced(), 65u);
  EXPECT_EQ(snapshot, tracer.hops(first));
}

TEST(PacketTracer, TracksManyPacketsIndependently) {
  sim::Simulator sim;
  const auto built = Topology::converging_paths({4, 6}, 1);
  Network network(sim, built.topology, core::DisciplineSpec::immediate(), {},
                  sim::RandomStream(1));
  PacketTracer tracer(network);
  const std::uint64_t a =
      network.originate(built.sources[0], codec().seal({0.0, 0, 0.0}, 1));
  const std::uint64_t b =
      network.originate(built.sources[1], codec().seal({0.0, 0, 0.0}, 2));
  sim.run();
  EXPECT_EQ(tracer.path(a).size(), 5u);  // 4 hops -> 5 nodes
  EXPECT_EQ(tracer.path(b).size(), 7u);
  EXPECT_EQ(tracer.path(a).back(), built.topology.sink());
  EXPECT_EQ(tracer.path(b).back(), built.topology.sink());
}

TEST(TopologyStar, AllLeavesOneHopFromSink) {
  const Topology topo = Topology::star(6);
  const RoutingTable routing(topo);
  EXPECT_EQ(topo.node_count(), 7u);
  for (NodeId leaf = 1; leaf <= 6; ++leaf) {
    EXPECT_EQ(routing.hops_to_sink(leaf), 1);
    EXPECT_EQ(routing.next_hop(leaf), topo.sink());
  }
  EXPECT_THROW(Topology::star(0), std::invalid_argument);
}

TEST(TopologyBinaryTree, DepthAndStructure) {
  const Topology topo = Topology::binary_tree(3);
  const RoutingTable routing(topo);
  EXPECT_EQ(topo.node_count(), 15u);
  EXPECT_TRUE(routing.fully_connected());
  // Leaves (ids 7..14) are depth hops from the root sink.
  for (NodeId leaf = 7; leaf <= 14; ++leaf) {
    EXPECT_EQ(routing.hops_to_sink(leaf), 3);
  }
  EXPECT_EQ(routing.hops_to_sink(1), 1);
  EXPECT_EQ(routing.next_hop(5), 2u);  // parent of node 5 is (5-1)/2 = 2
}

TEST(TopologyBinaryTree, DepthZeroIsJustTheSink) {
  const Topology topo = Topology::binary_tree(0);
  EXPECT_EQ(topo.node_count(), 1u);
  EXPECT_EQ(topo.sink(), 0u);
}

}  // namespace
}  // namespace tempriv::net
