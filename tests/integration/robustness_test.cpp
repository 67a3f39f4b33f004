// Cross-cutting robustness properties: routing invariants on randomized
// topologies, crypto key-domain separation, and end-to-end runs on the
// non-paper topologies.

#include <gtest/gtest.h>

#include <set>

#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/routing.h"
#include "net/topology_fixtures.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace tempriv {
namespace {

class RandomTopologyRoutingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyRoutingTest, BfsInvariantsHoldOnRandomGeometricGraphs) {
  sim::RandomStream rng(GetParam());
  const net::Topology topo =
      net::Topology::random_geometric_multi_sink(60, 10.0, 2.5, 1, rng);
  const net::RoutingTable routing(topo);
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    if (!routing.reachable(id)) continue;
    if (id == topo.sink()) {
      EXPECT_EQ(routing.hops_to_sink(id), 0);
      continue;
    }
    // Next hop is a neighbor and strictly closer to the sink.
    const net::NodeId next = routing.next_hop(id);
    ASSERT_NE(next, net::kInvalidNode);
    EXPECT_TRUE(topo.has_edge(id, next));
    EXPECT_EQ(routing.hops_to_sink(id), routing.hops_to_sink(next) + 1);
    // BFS optimality: no neighbor is more than one hop closer.
    for (const net::NodeId nbr : topo.neighbors(id)) {
      if (!routing.reachable(nbr)) continue;
      EXPECT_GE(routing.hops_to_sink(nbr) + 1, routing.hops_to_sink(id));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyRoutingTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(CryptoDomainSeparation, CtrAndMacSubkeysDiffer) {
  // Sealing with the CTR subkey misused as a MAC key must not verify:
  // check indirectly by ensuring a codec with a master key whose derived
  // subkeys were swapped cannot open the original's output. (We can't
  // reach the subkeys directly — the public contract is that two codecs
  // agree iff their master keys agree.)
  crypto::Speck64_128::Key key_a{};
  key_a.fill(0x01);
  crypto::Speck64_128::Key key_b{};
  key_b.fill(0x01);
  key_b[15] ^= 0x80;
  crypto::PayloadCodec codec_a(key_a);
  crypto::PayloadCodec codec_b(key_b);
  const auto sealed = codec_a.seal({1.0, 2, 3.0}, 4);
  EXPECT_TRUE(codec_a.open(sealed).has_value());
  EXPECT_FALSE(codec_b.open(sealed).has_value());
}

TEST(EndToEnd, StarTopologyAggregatesAllFlowsAtTheHubSink) {
  sim::Simulator sim;
  net::Network network(sim, net::fixtures::star(8),
                       core::DisciplineSpec::rcad_exponential(10.0, 4), {},
                       sim::RandomStream(3));
  crypto::Speck64_128::Key key{};
  key.fill(0x77);
  crypto::PayloadCodec codec(key);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&truth);
  std::vector<std::unique_ptr<workload::PeriodicSource>> sources;
  for (net::NodeId leaf = 1; leaf <= 8; ++leaf) {
    sources.push_back(std::make_unique<workload::PeriodicSource>(
        network, codec, leaf, sim::RandomStream(100 + leaf), 3.0, 50));
    sources.back()->start(0.1 * leaf);
  }
  sim.run();
  EXPECT_EQ(network.packets_delivered(), 8u * 50u);
  EXPECT_EQ(truth.delivered(), 400u);
}

TEST(EndToEnd, BinaryTreeLeavesAllReachTheRoot) {
  sim::Simulator sim;
  const net::Topology topo = net::fixtures::binary_tree(4);  // 31 nodes
  net::Network network(sim, topo,
                       core::DisciplineSpec::unlimited_exponential(5.0),
                       {}, sim::RandomStream(4));
  crypto::Speck64_128::Key key{};
  key.fill(0x12);
  crypto::PayloadCodec codec(key);
  adversary::GroundTruthRecorder truth(codec);
  network.add_sink_observer(&truth);
  std::vector<std::unique_ptr<workload::PeriodicSource>> sources;
  std::uint32_t injected = 0;
  for (net::NodeId leaf = 15; leaf <= 30; ++leaf) {  // the 16 leaves
    sources.push_back(std::make_unique<workload::PeriodicSource>(
        network, codec, leaf, sim::RandomStream(200 + leaf), 10.0, 20));
    sources.back()->start(0.0);
    injected += 20;
  }
  sim.run();
  EXPECT_EQ(network.packets_delivered(), injected);
  // Every leaf is 4 hops deep: latency >= 4τ plus four delay stages.
  for (net::NodeId leaf = 15; leaf <= 30; ++leaf) {
    EXPECT_GE(truth.latency(leaf).min(), 4.0);
    EXPECT_GT(truth.latency(leaf).mean(), 10.0);
  }
}

TEST(EndToEnd, InterleavedSchemesOnSameSimulatorDoNotInterfere) {
  // Two independent networks sharing one simulator — the kernel must keep
  // their event streams correctly interleaved.
  sim::Simulator sim;
  crypto::Speck64_128::Key key{};
  key.fill(0x09);
  crypto::PayloadCodec codec(key);

  net::Network fast_net(sim, net::Topology::line(4),
                        core::DisciplineSpec::immediate(),
                        {}, sim::RandomStream(5));
  net::Network slow_net(sim, net::Topology::line(4),
                        core::DisciplineSpec::unlimited(
                            std::make_shared<core::ConstantDelay>(50.0)),
                        {}, sim::RandomStream(6));
  adversary::GroundTruthRecorder fast_truth(codec);
  adversary::GroundTruthRecorder slow_truth(codec);
  fast_net.add_sink_observer(&fast_truth);
  slow_net.add_sink_observer(&slow_truth);

  workload::PeriodicSource fast_src(fast_net, codec, 0, sim::RandomStream(7),
                                    5.0, 100);
  workload::PeriodicSource slow_src(slow_net, codec, 0, sim::RandomStream(8),
                                    5.0, 100);
  fast_src.start(0.0);
  slow_src.start(0.0);
  sim.run();
  EXPECT_DOUBLE_EQ(fast_truth.latency(0).mean(), 3.0);
  EXPECT_DOUBLE_EQ(slow_truth.latency(0).mean(), 3.0 + 3 * 50.0);
}

}  // namespace
}  // namespace tempriv
