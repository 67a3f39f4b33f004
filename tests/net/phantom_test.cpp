#include "net/phantom.h"

#include <gtest/gtest.h>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/tracer.h"
#include "workload/source.h"

namespace tempriv::net {
namespace {

crypto::PayloadCodec& codec() {
  static crypto::PayloadCodec instance(crypto::Speck64_128::Key{
      0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  return instance;
}

TEST(HopJitter, AddsBoundedLinkDelay) {
  sim::Simulator sim;
  Network network(sim, Topology::line(6), core::DisciplineSpec::immediate(),
                  {.hop_tx_delay = 1.0, .hop_jitter = 0.5},
                  sim::RandomStream(1));
  adversary::GroundTruthRecorder truth(codec());
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(2),
                                  5.0, 500);
  source.start(0.0);
  sim.run();
  // Latency in [h*tau, h*(tau+jitter)) with mean h*(tau + jitter/2).
  EXPECT_GE(truth.latency(0).min(), 5.0);
  EXPECT_LT(truth.latency(0).max(), 5.0 * 1.5);
  EXPECT_NEAR(truth.latency(0).mean(), 5.0 * 1.25, 0.1);
}

TEST(HopJitter, MakesNoDelayMseSmallButNonzero) {
  // The paper's case-1 curve is "very small" rather than exactly zero;
  // MAC jitter reproduces that. Adversary knows the mean per-hop delay.
  sim::Simulator sim;
  Network network(sim, Topology::line(6), core::DisciplineSpec::immediate(),
                  {.hop_tx_delay = 1.0, .hop_jitter = 0.5},
                  sim::RandomStream(3));
  adversary::BaselineAdversary adv(1.25, 0.0);  // tau + jitter/2
  adversary::GroundTruthRecorder truth(codec());
  network.add_sink_observer(&adv);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(4),
                                  5.0, 2000);
  source.start(0.0);
  sim.run();
  const double mse = truth.score_all(adv).mse();
  // Theoretical: h * jitter^2/12 = 5 * 0.25/12 ≈ 0.104.
  EXPECT_GT(mse, 0.05);
  EXPECT_LT(mse, 0.2);
}

TEST(HopJitter, RejectsNegativeJitter) {
  sim::Simulator sim;
  EXPECT_THROW(Network(sim, Topology::line(3),
                       core::DisciplineSpec::immediate(),
                       {.hop_tx_delay = 1.0, .hop_jitter = -0.1},
                       sim::RandomStream(1)),
               std::invalid_argument);
}

TEST(PhantomRouting, DeliversEverythingDespiteRandomWalk) {
  sim::Simulator sim;
  Network network(sim, Topology::grid(6, 6), core::DisciplineSpec::immediate(),
                  {},
                  sim::RandomStream(5));
  network.set_hop_selector(
      phantom_routing_selector(network.topology(), network.routing(), 8));
  adversary::GroundTruthRecorder truth(codec());
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 35, sim::RandomStream(6),
                                  3.0, 300);
  source.start(0.0);
  sim.run();
  EXPECT_EQ(network.packets_delivered(), 300u);
}

TEST(PhantomRouting, WalkLengthensAndRandomizesPaths) {
  sim::Simulator sim;
  Network network(sim, Topology::grid(6, 6), core::DisciplineSpec::immediate(),
                  {},
                  sim::RandomStream(7));
  network.set_hop_selector(
      phantom_routing_selector(network.topology(), network.routing(), 6));
  PacketTracer tracer(network);
  adversary::GroundTruthRecorder truth(codec());
  network.add_sink_observer(&truth);
  const std::uint16_t tree_hops = network.routing().hops_to_sink(35);
  workload::PeriodicSource source(network, codec(), 35, sim::RandomStream(8),
                                  3.0, 200);
  source.start(0.0);
  sim.run();
  bool lengths_vary = false;
  std::size_t first_len = tracer.path(0).size();
  for (std::uint64_t uid = 0; uid < 200; ++uid) {
    const auto path = tracer.path(uid);
    // Never shorter than the walk; walk + tree distance bounds below.
    EXPECT_GT(path.size(), static_cast<std::size_t>(6));
    if (path.size() != first_len) lengths_vary = true;
  }
  EXPECT_TRUE(lengths_vary);
  // Expected path length exceeds the tree distance.
  EXPECT_GT(truth.latency(35).mean(), static_cast<double>(tree_hops));
}

TEST(PhantomRouting, NoTemporalPrivacyAgainstHeaderReader) {
  // The negative result: the hop count travels in cleartext, so with
  // constant per-hop delay the adversary subtracts h*tau exactly — random
  // walk or not, MSE stays ~0.
  sim::Simulator sim;
  Network network(sim, Topology::grid(6, 6), core::DisciplineSpec::immediate(),
                  {},
                  sim::RandomStream(9));
  network.set_hop_selector(
      phantom_routing_selector(network.topology(), network.routing(), 6));
  adversary::BaselineAdversary adv(1.0, 0.0);
  adversary::GroundTruthRecorder truth(codec());
  network.add_sink_observer(&adv);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 35, sim::RandomStream(10),
                                  3.0, 300);
  source.start(0.0);
  sim.run();
  EXPECT_NEAR(truth.score_all(adv).mse(), 0.0, 1e-12);
}

TEST(PhantomRouting, ZeroWalkEqualsTreeRouting) {
  sim::Simulator sim;
  Network network(sim, Topology::grid(5, 5), core::DisciplineSpec::immediate(),
                  {},
                  sim::RandomStream(11));
  network.set_hop_selector(
      phantom_routing_selector(network.topology(), network.routing(), 0));
  PacketTracer tracer(network);
  const std::uint64_t uid = network.originate(24, codec().seal({0, 0, 0.0}, 24));
  sim.run();
  EXPECT_EQ(tracer.path(uid).size(),
            network.routing().hops_to_sink(24) + 1u);
}

TEST(PhantomRouting, RejectsDisconnectedTopology) {
  Topology topo = Topology::line(3);
  topo.add_node();  // island
  const RoutingTable routing(topo);
  EXPECT_THROW(phantom_routing_selector(topo, routing, 3),
               std::invalid_argument);
}

TEST(HopSelector, NonNeighborSelectionThrows) {
  sim::Simulator sim;
  Network network(sim, Topology::line(4), core::DisciplineSpec::immediate(), {},
                  sim::RandomStream(12));
  network.set_hop_selector(
      [](NodeId, const Packet&, sim::RandomStream&) -> NodeId { return 3; });
  // Node 0's only neighbor is 1; selecting the sink (3) directly is
  // illegal. Immediate forwarding transmits synchronously, so the violation
  // surfaces right at injection.
  EXPECT_THROW(network.originate(0, codec().seal({0, 0, 0.0}, 0)),
               std::logic_error);
}

}  // namespace
}  // namespace tempriv::net
