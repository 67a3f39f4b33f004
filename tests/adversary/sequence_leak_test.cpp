#include "adversary/sequence_leak.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "adversary/ground_truth.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/stats.h"
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

/// Flow `flow`'s MSE under the paper's sealed design (baseline adversary)
/// and under a leaked cleartext sequence number, from one run.
struct LeakScores {
  metrics::MseAccumulator sealed;
  metrics::MseAccumulator leaked;
};

/// Bias-centered MSE: the error in relative event timing.
double centered(const metrics::MseAccumulator& score) {
  return score.mse() - score.bias() * score.bias();
}

/// Runs periodic sources (1000 packets each, source i starting at
/// `phase_step`·i) through `network` with both adversaries at the sink.
LeakScores score_leak(sim::Simulator& sim, net::Network& network,
                      const std::vector<net::NodeId>& sources,
                      double interarrival, double phase_step,
                      sim::RandomStream root) {
  SequenceLeakAdversary leaky(1.0, 30.0, leak_oracle());
  BaselineAdversary sealed(1.0, 30.0);  // the paper's design: seq encrypted
  GroundTruthRecorder truth(codec());
  network.add_sink_observer(&leaky);
  network.add_sink_observer(&sealed);
  network.add_sink_observer(&truth);
  std::vector<std::unique_ptr<workload::PeriodicSource>> periodic;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    periodic.push_back(std::make_unique<workload::PeriodicSource>(
        network, codec(), sources[i], root.split(i), interarrival, 1000));
    periodic.back()->start(phase_step * static_cast<double>(i));
  }
  sim.run();
  std::vector<Estimate> flow_estimates;
  for (const Estimate& est : leaky.estimates()) {
    if (est.flow == sources[0]) flow_estimates.push_back(est);
  }
  return {truth.score_flow(sealed, sources[0]),
          truth.score_estimates(flow_estimates)};
}

TEST(SequenceLeakAdversary, DefeatsDelayingOnPeriodicTraffic) {
  // The headline (§2): with the sequence number leaked, random delaying
  // leaves almost no temporal privacy for periodic sources.
  {
    // Unlimited delaying, one flow on an 8-node line: the sealed baseline
    // is unbiased but keeps the full per-packet delay variance h/µ² =
    // 7·900; the leak averages it away (the residual is the regression's
    // convergence transient).
    sim::Simulator sim;
    net::Network network(sim, net::Topology::line(8),
                         core::DisciplineSpec::unlimited_exponential(30.0), {},
                         sim::RandomStream(3));
    const LeakScores score =
        score_leak(sim, network, {0}, 2.0, 0.0, sim::RandomStream(4));
    EXPECT_LT(score.leaked.mse(), score.sealed.mse() / 4.0);
    EXPECT_LT(centered(score.leaked), centered(score.sealed) / 4.0);
  }
  // The paper's setting: RCAD (k = 10, Exp(30)) on the Figure-1 tree, four
  // periodic flows, flow S1 scored. The leak collapses the centered MSE at
  // every rate. The absolute MSE collapses only at a low rate: at 1/λ = 2
  // preemption shortens the delays the leaked adversary anchors on, and its
  // absolute MSE (58,932) sits above the sealed one (46,222). Over 12 seed
  // pairs (this one and 11 more) centered leaked/sealed read 0.071–0.102
  // at 1/λ = 2 and 0.021–0.065 at 16; absolute leaked/sealed read
  // 1.27–1.31 at 2 and 0.031–0.115 at 16. So the factor-4 margins hold on
  // every seed tried.
  for (const double interarrival : {2.0, 16.0}) {
    SCOPED_TRACE(interarrival);
    sim::Simulator sim;
    auto built = net::Topology::paper_figure1();
    net::Network network(sim, std::move(built.topology),
                         core::DisciplineSpec::rcad_exponential(30.0, 10), {},
                         sim::RandomStream(0x5e9));
    const LeakScores score = score_leak(sim, network, built.sources,
                                        interarrival, 0.3,
                                        sim::RandomStream(0xbeef));
    EXPECT_LT(centered(score.leaked), centered(score.sealed) / 4.0);
    if (interarrival == 16.0) {
      EXPECT_LT(score.leaked.mse(), score.sealed.mse() / 4.0);
    }
  }
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
