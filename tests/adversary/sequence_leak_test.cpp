#include "adversary/sequence_leak.h"

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
      1, 9, 8, 4, 1, 9, 8, 4, 2, 0, 0, 7, 2, 0, 0, 7});
  return instance;
}

SequenceLeakAdversary::SequenceLeak leak_oracle() {
  return [](const net::Packet& packet) {
    return codec().open(packet.payload)->app_seq;
  };
}

TEST(SequenceLeakAdversary, RecoversPeriodOfPeriodicSource) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(8),
                       core::DisciplineSpec::unlimited_exponential(20.0), {},
                       sim::RandomStream(1));
  SequenceLeakAdversary adversary(1.0, 20.0, leak_oracle());
  network.add_sink_observer(&adversary);
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(2),
                                  4.0, 300);
  source.start(0.0);
  sim.run();
  EXPECT_NEAR(adversary.period_estimate(0), 4.0, 0.05);
}

TEST(SequenceLeakAdversary, DefeatsDelayingOnPeriodicTraffic) {
  // The headline: with the sequence number leaked, even heavy random
  // delaying leaves almost no temporal privacy for periodic sources.
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(8),
                       core::DisciplineSpec::unlimited_exponential(30.0), {},
                       sim::RandomStream(3));
  SequenceLeakAdversary leaky(1.0, 30.0, leak_oracle());
  BaselineAdversary sealed(1.0, 30.0);  // the paper's design: seq encrypted
  GroundTruthRecorder truth(codec());
  network.add_sink_observer(&leaky);
  network.add_sink_observer(&sealed);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(4),
                                  2.0, 1000);
  source.start(0.0);
  sim.run();

  // Against unlimited delaying the sealed baseline is unbiased but keeps
  // the full per-packet delay variance h/µ² = 7·900; the leak averages it
  // away (the residual is the regression's convergence transient).
  const auto leaky_score = truth.score_estimates(leaky.estimates());
  const auto sealed_score = truth.score_all(sealed);
  EXPECT_LT(leaky_score.mse(), sealed_score.mse() / 4.0);
  const double centered_leaky =
      leaky_score.mse() - leaky_score.bias() * leaky_score.bias();
  const double centered_sealed =
      sealed_score.mse() - sealed_score.bias() * sealed_score.bias();
  EXPECT_LT(centered_leaky, centered_sealed / 4.0);
}

TEST(SequenceLeakAdversary, FallsBackBeforeTwoPackets) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(4),
                       core::DisciplineSpec::immediate(),
                       {}, sim::RandomStream(5));
  SequenceLeakAdversary adversary(1.0, 0.0, leak_oracle());
  network.add_sink_observer(&adversary);
  workload::PeriodicSource source(network, codec(), 0, sim::RandomStream(6),
                                  10.0, 1);
  source.start(0.0);
  sim.run();
  ASSERT_EQ(adversary.estimates().size(), 1u);
  // Single packet, no-delay network: fallback z − h·τ is exact.
  EXPECT_DOUBLE_EQ(adversary.estimates()[0].estimated_creation, 0.0);
  EXPECT_DOUBLE_EQ(adversary.period_estimate(0), 0.0);
}

TEST(SequenceLeakAdversary, TracksFlowsIndependently) {
  sim::Simulator sim;
  const auto built = net::Topology::converging_paths({5, 5}, 1);
  net::Network network(sim, built.topology,
                       core::DisciplineSpec::unlimited_exponential(10.0), {},
                       sim::RandomStream(7));
  SequenceLeakAdversary adversary(1.0, 10.0, leak_oracle());
  network.add_sink_observer(&adversary);
  workload::PeriodicSource fast(network, codec(), built.sources[0],
                                sim::RandomStream(8), 2.0, 200);
  workload::PeriodicSource slow(network, codec(), built.sources[1],
                                sim::RandomStream(9), 7.0, 200);
  fast.start(0.0);
  slow.start(0.0);
  sim.run();
  EXPECT_NEAR(adversary.period_estimate(built.sources[0]), 2.0, 0.05);
  EXPECT_NEAR(adversary.period_estimate(built.sources[1]), 7.0, 0.05);
}

TEST(SequenceLeakAdversary, ValidatesArguments) {
  EXPECT_THROW(SequenceLeakAdversary(-1.0, 0.0, leak_oracle()),
               std::invalid_argument);
  EXPECT_THROW(SequenceLeakAdversary(1.0, -2.0, leak_oracle()),
               std::invalid_argument);
  EXPECT_THROW(SequenceLeakAdversary(1.0, 0.0, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::adversary
