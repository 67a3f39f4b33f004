// Validates the §4 queueing analysis against the event-driven simulator:
// the M/M/∞ occupancy law, the Erlang-loss drop rate of M/M/k/k nodes, and
// Burke's theorem (Poisson in -> Poisson out) that justifies analyzing the
// tandem/tree network node by node.

#include <gtest/gtest.h>

#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "metrics/histogram.h"
#include "metrics/stats.h"
#include "net/network.h"
#include "queueing/erlang.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace tempriv {
namespace {

crypto::PayloadCodec& codec() {
  static crypto::PayloadCodec instance(crypto::Speck64_128::Key{
      2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5});
  return instance;
}

// Source node 0 forwards immediately; node 1 is the queue under test.
net::NodeSpecs single_queue(const core::DisciplineSpec& queue) {
  return [queue](net::NodeId id, std::uint16_t) {
    return id == 1 ? queue : core::DisciplineSpec::immediate();
  };
}

TEST(QueueingValidation, MmInfOccupancyIsPoissonWithMeanRho) {
  // Poisson(λ = 0.4) arrivals, Exp(1/µ = 10) delays: ρ = 4.
  constexpr double kLambda = 0.4;
  constexpr double kMeanDelay = 10.0;
  const double rho = kLambda * kMeanDelay;

  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      single_queue(core::DisciplineSpec::unlimited_exponential(kMeanDelay)),
      {}, sim::RandomStream(31));

  metrics::TimeWeightedOccupancy occupancy;
  network.set_occupancy_probe(
      [&](net::NodeId node, sim::Time now, std::size_t occ) {
        if (node == 1) occupancy.record(now, occ);
      });

  workload::PoissonSource source(network, codec(), 0, sim::RandomStream(32),
                                 kLambda, 40000);
  source.start(0.0);
  sim.run();
  occupancy.finish(sim.now());

  // E[N] = ρ.
  EXPECT_NEAR(occupancy.mean_level(), rho, rho * 0.05);
  // Stationary distribution is Poisson(ρ): check the body of the PMF.
  for (std::uint64_t k = 0; k <= 8; ++k) {
    EXPECT_NEAR(occupancy.fraction_at(k), queueing::poisson_pmf(rho, k), 0.02)
        << "occupancy level " << k;
  }
}

TEST(QueueingValidation, DropTailLossMatchesErlangFormula) {
  // M/M/k/k: λ = 0.5, 1/µ = 10 => ρ = 5, k = 5 slots.
  constexpr double kLambda = 0.5;
  constexpr double kMeanDelay = 10.0;
  constexpr std::size_t kSlots = 5;
  const double rho = kLambda * kMeanDelay;

  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      single_queue(core::DisciplineSpec::droptail_exponential(kMeanDelay, kSlots)),
      {}, sim::RandomStream(33));

  workload::PoissonSource source(network, codec(), 0, sim::RandomStream(34),
                                 kLambda, 60000);
  source.start(0.0);
  sim.run();

  const double measured_loss =
      static_cast<double>(network.total_drops()) /
      static_cast<double>(network.packets_originated());
  const double predicted = queueing::erlang_loss(rho, kSlots);
  EXPECT_NEAR(measured_loss, predicted, predicted * 0.05);
}

TEST(QueueingValidation, RcadPreemptionRateExceedsErlangLoss) {
  // Each arrival that finds the buffer full triggers exactly one
  // preemption. Unlike drop-tail, preempting the shortest-remaining packet
  // and admitting a fresh Exp(µ) delay *refreshes* the residual holding
  // times, so the buffer stays full longer than the M/M/k/k model predicts:
  // the preemption rate upper-bounds — and at overload clearly exceeds —
  // the Erlang loss E(ρ, k).
  constexpr double kLambda = 0.5;
  constexpr double kMeanDelay = 10.0;
  constexpr std::size_t kSlots = 5;
  const double rho = kLambda * kMeanDelay;

  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      single_queue(core::DisciplineSpec::rcad_exponential(kMeanDelay, kSlots)),
      {}, sim::RandomStream(35));

  workload::PoissonSource source(network, codec(), 0, sim::RandomStream(36),
                                 kLambda, 60000);
  source.start(0.0);
  sim.run();

  const double measured =
      static_cast<double>(network.total_preemptions()) /
      static_cast<double>(network.packets_originated());
  const double predicted = queueing::erlang_loss(rho, kSlots);
  EXPECT_GT(measured, predicted);
  EXPECT_LT(measured, 1.0);
  EXPECT_EQ(network.total_drops(), 0u);
  EXPECT_EQ(network.packets_delivered(), network.packets_originated());
}

TEST(QueueingValidation, BurkeTheoremPoissonInPoissonOut) {
  // Departures of the M/M/∞ node (arrivals at the sink) must again be
  // Poisson(λ): exponential inter-arrivals with mean 1/λ and squared
  // coefficient of variation 1.
  constexpr double kLambda = 0.4;

  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      single_queue(core::DisciplineSpec::unlimited_exponential(25.0)),
      {}, sim::RandomStream(37));

  struct ArrivalRecorder final : net::SinkObserver {
    metrics::StreamingStats gaps;
    double last = -1.0;
    void on_delivery(const net::Packet&, sim::Time arrival) override {
      if (last >= 0.0) gaps.add(arrival - last);
      last = arrival;
    }
  } recorder;
  network.add_sink_observer(&recorder);

  workload::PoissonSource source(network, codec(), 0, sim::RandomStream(38),
                                 kLambda, 40000);
  source.start(0.0);
  sim.run();

  EXPECT_NEAR(recorder.gaps.mean(), 1.0 / kLambda, 0.05);
  const double scv = recorder.gaps.variance() /
                     (recorder.gaps.mean() * recorder.gaps.mean());
  EXPECT_NEAR(scv, 1.0, 0.05);  // exponential gaps -> SCV = 1
}

TEST(QueueingValidation, TandemQueuesEachHoldRho) {
  // Two delaying nodes in series with different µ: by Burke both see
  // Poisson(λ) input, so total expected buffering is ρ1 + ρ2 (§4's
  // node-by-node analysis of the routing tree).
  constexpr double kLambda = 0.3;
  constexpr double kMean1 = 8.0;
  constexpr double kMean2 = 16.0;

  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(4),
      [&](net::NodeId id, std::uint16_t) {
        if (id == 1) return core::DisciplineSpec::unlimited_exponential(kMean1);
        if (id == 2) return core::DisciplineSpec::unlimited_exponential(kMean2);
        return core::DisciplineSpec::immediate();
      },
      {}, sim::RandomStream(39));

  metrics::TimeWeightedOccupancy occ1;
  metrics::TimeWeightedOccupancy occ2;
  network.set_occupancy_probe(
      [&](net::NodeId node, sim::Time now, std::size_t occ) {
        if (node == 1) occ1.record(now, occ);
        if (node == 2) occ2.record(now, occ);
      });

  workload::PoissonSource source(network, codec(), 0, sim::RandomStream(40),
                                 kLambda, 40000);
  source.start(0.0);
  sim.run();
  occ1.finish(sim.now());
  occ2.finish(sim.now());

  EXPECT_NEAR(occ1.mean_level(), kLambda * kMean1, kLambda * kMean1 * 0.08);
  EXPECT_NEAR(occ2.mean_level(), kLambda * kMean2, kLambda * kMean2 * 0.08);
}

}  // namespace
}  // namespace tempriv
