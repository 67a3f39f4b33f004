#include "adversary/eavesdropper.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace tempriv::adversary {
namespace {

crypto::PayloadCodec& codec() {
  static crypto::PayloadCodec instance(crypto::Speck64_128::Key{
      8, 6, 7, 5, 3, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  return instance;
}

TEST(InNetworkEavesdropper, ExactOnNoDelayNetwork) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(6),
                       core::DisciplineSpec::immediate(),
                       {}, sim::RandomStream(1));
  // Listening on node 2 (3 hops from source 0's origin? node 2 is mid-path).
  InNetworkEavesdropper eve({1.0, 0.0}, network, {2});
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(2),
                                  10.0, 5);
  source.start(0.0);
  sim.run();
  ASSERT_EQ(eve.packets_heard(), 5u);
  EXPECT_EQ(eve.flows_heard(), 1u);
  for (const Estimate& est : eve.estimates()) {
    // Creation at 10*i; overheard leaving node 2 at creation + 2 (two link
    // traversals, zero holding) with hop_count = 3; estimate = t − 2τ = x.
    const double creation = est.arrival - 2.0;
    EXPECT_DOUBLE_EQ(est.estimated_creation, creation);
  }
}

TEST(InNetworkEavesdropper, HearsOnlyFlowsInRange) {
  sim::Simulator sim;
  const auto built = net::Topology::converging_paths({6, 6}, 2);
  net::Network network(sim, built.topology, core::DisciplineSpec::immediate(),
                       {},
                       sim::RandomStream(1));
  const auto path_a = network.routing().path_to_sink(built.sources[0]);
  // Listen on a branch node of flow A only (not the shared trunk).
  InNetworkEavesdropper eve({1.0, 0.0}, network, {path_a[1]});
  workload::PeriodicSource src_a(network, codec(), built.sources[0],
                                 sim::RandomStream(2), 5.0, 10);
  workload::PeriodicSource src_b(network, codec(), built.sources[1],
                                 sim::RandomStream(3), 5.0, 10);
  src_a.start(0.0);
  src_b.start(0.0);
  sim.run();
  EXPECT_EQ(eve.flows_heard(), 1u);
  EXPECT_EQ(eve.packets_heard(), 10u);  // only flow A
}

TEST(InNetworkEavesdropper, SinkRangeHearsEverything) {
  sim::Simulator sim;
  const auto built = net::Topology::converging_paths({6, 6}, 2);
  net::Network network(sim, built.topology, core::DisciplineSpec::immediate(),
                       {},
                       sim::RandomStream(1));
  // The node one hop from the sink transmits every packet in the network.
  const auto path = network.routing().path_to_sink(built.sources[0]);
  const net::NodeId last_hop = path[path.size() - 2];
  InNetworkEavesdropper eve({1.0, 0.0}, network, {last_hop});
  workload::PeriodicSource src_a(network, codec(), built.sources[0],
                                 sim::RandomStream(2), 5.0, 10);
  workload::PeriodicSource src_b(network, codec(), built.sources[1],
                                 sim::RandomStream(3), 5.0, 10);
  src_a.start(0.0);
  src_b.start(0.0);
  sim.run();
  EXPECT_EQ(eve.flows_heard(), 2u);
  EXPECT_EQ(eve.packets_heard(), 20u);
}

TEST(InNetworkEavesdropper, EarlyPlacementBeatsSinkOnCoveredFlow) {
  // Under delaying, a branch eavesdropper inverts fewer random delays than
  // the sink adversary, so its MSE on the covered flow is smaller.
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(12),
                       core::DisciplineSpec::unlimited_exponential(20.0), {},
                       sim::RandomStream(4));
  const auto path = network.routing().path_to_sink(0);
  InNetworkEavesdropper early({1.0, 20.0}, network, {path[2]});
  BaselineAdversary sink_adv(1.0, 20.0);
  GroundTruthRecorder truth(codec());
  network.add_sink_observer(&sink_adv);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(5),
                                  5.0, 800);
  source.start(0.0);
  sim.run();
  const double mse_early = truth.score_estimates(early.estimates()).mse();
  const double mse_sink = truth.score_all(sink_adv).mse();
  EXPECT_LT(mse_early, mse_sink);
  EXPECT_GT(mse_early, 0.0);
}

TEST(InNetworkEavesdropper, DeduplicatesRetransmissionsOfSamePacket) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(6),
                       core::DisciplineSpec::immediate(),
                       {}, sim::RandomStream(1));
  // Range covers two consecutive nodes: each packet is heard twice but
  // estimated once (at the first, earlier, overhearing).
  InNetworkEavesdropper eve({1.0, 0.0}, network, {1, 2});
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(2),
                                  5.0, 7);
  source.start(0.0);
  sim.run();
  EXPECT_EQ(eve.packets_heard(), 7u);
}

TEST(InNetworkEavesdropper, ValidatesArguments) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(3),
                       core::DisciplineSpec::immediate(),
                       {}, sim::RandomStream(1));
  EXPECT_THROW(InNetworkEavesdropper({1.0, 0.0}, network, {}),
               std::invalid_argument);
  EXPECT_THROW(InNetworkEavesdropper({-1.0, 0.0}, network, {0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::adversary
