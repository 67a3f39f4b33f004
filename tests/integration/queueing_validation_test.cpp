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

/// Node 1's time-weighted occupancy when it delays Poisson(λ) traffic by
/// Exp(1/µ = mean_delay) with unlimited buffers: an M/M/∞ queue.
metrics::TimeWeightedOccupancy mm_inf_occupancy(double lambda,
                                                double mean_delay,
                                                std::uint32_t packets,
                                                std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(
      sim, net::Topology::line(3),
      single_queue(core::DisciplineSpec::unlimited_exponential(mean_delay)),
      {}, sim::RandomStream(seed));

  metrics::TimeWeightedOccupancy occupancy;
  network.set_occupancy_probe(
      [&](net::NodeId node, sim::Time now, std::size_t occ) {
        if (node == 1) occupancy.record(now, occ);
      });

  workload::PoissonSource source(network, codec(), 0,
                                 sim::RandomStream(seed + 1), lambda, packets);
  source.start(0.0);
  sim.run();
  occupancy.finish(sim.now());
  return occupancy;
}

/// Node 1's drop rate when it holds Poisson(λ = 0.5) traffic for Exp(ρ/λ)
/// in `slots` drop-tail slots: an M/M/k/k queue.
double mm_kk_drop_rate(double rho, std::size_t slots, std::uint32_t packets,
                       std::uint64_t seed) {
  constexpr double kLambda = 0.5;
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(3),
                       single_queue(core::DisciplineSpec::droptail_exponential(
                           rho / kLambda, slots)),
                       {}, sim::RandomStream(seed));
  workload::PoissonSource source(network, codec(), 0,
                                 sim::RandomStream(seed + 1), kLambda, packets);
  source.start(0.0);
  sim.run();
  return static_cast<double>(network.total_drops()) /
         static_cast<double>(network.packets_originated());
}

TEST(QueueingValidation, MmInfOccupancyIsPoissonWithMeanRho) {
  {
    // Poisson(λ = 0.4) arrivals, Exp(1/µ = 10) delays: ρ = 4.
    const double rho = 0.4 * 10.0;
    const metrics::TimeWeightedOccupancy occupancy =
        mm_inf_occupancy(0.4, 10.0, 40000, 31);
    // E[N] = ρ.
    EXPECT_NEAR(occupancy.mean_level(), rho, rho * 0.05);
    // Stationary distribution is Poisson(ρ): check the body of the PMF.
    for (std::uint64_t k = 0; k <= 8; ++k) {
      EXPECT_NEAR(occupancy.fraction_at(k), queueing::poisson_pmf(rho, k),
                  0.02)
          << "occupancy level " << k;
    }
  }
  // §4's trade-off: E[N] = ρ = λ/µ over a (λ, 1/µ) sweep, so doubling the
  // mean privacy delay doubles the buffer demand. 40,000 packets per cell.
  // Over 12 seeds per cell (these and 11 more) the largest deviation was
  // 2.1% of ρ (standard deviation 0.8%); λ = 0.5, 1/µ = 10 reads 4.920
  // here, -1.6%. Tolerance: 3% of ρ.
  for (const double lambda : {0.1, 0.25, 0.5}) {
    for (const double mean_delay : {10.0, 30.0, 60.0}) {
      const double rho = lambda * mean_delay;
      const std::uint64_t seed =
          71 + static_cast<std::uint64_t>(lambda * 1000 + mean_delay);
      EXPECT_NEAR(
          mm_inf_occupancy(lambda, mean_delay, 40000, seed).mean_level(), rho,
          rho * 0.03)
          << "lambda " << lambda << ", 1/mu " << mean_delay;
    }
  }
}

TEST(QueueingValidation, DropTailLossMatchesErlangFormula) {
  // M/M/k/k: λ = 0.5, 1/µ = 10 => ρ = 5, k = 5 slots, 60,000 packets.
  {
    const double measured_loss = mm_kk_drop_rate(5.0, 5, 60000, 33);
    const double predicted = queueing::erlang_loss(5.0, 5);
    EXPECT_NEAR(measured_loss, predicted, predicted * 0.05);
  }
  // Eq. (5) over ρ ∈ {1, 5, 10, 20} × k ∈ {5, 10, 20}, 40,000 packets per
  // cell, at every cell where E(ρ, k) ≥ 10⁻³ (the others expect fewer than
  // 40 drops). Each tolerance, relative to E(ρ, k), is 1.5× the largest
  // deviation over 12 seeds per cell (these and 11 more), rounded up; the
  // rare-loss cells spread widest. ρ = k = 20 reads 0.1542 against 0.1589.
  struct LossCell {
    double rho;
    std::size_t slots;
    std::uint64_t seed;
    double tolerance;
  };
  constexpr LossCell kCells[] = {
      {1.0, 5, 500, 0.40},   {5.0, 5, 503, 0.04},   {5.0, 10, 504, 0.16},
      {10.0, 5, 506, 0.02},  {10.0, 10, 507, 0.04}, {10.0, 20, 508, 0.42},
      {20.0, 5, 509, 0.01},  {20.0, 10, 510, 0.025}, {20.0, 20, 511, 0.12},
  };
  for (const LossCell& cell : kCells) {
    const double predicted = queueing::erlang_loss(cell.rho, cell.slots);
    EXPECT_NEAR(mm_kk_drop_rate(cell.rho, cell.slots, 40000, cell.seed),
                predicted, predicted * cell.tolerance)
        << "rho " << cell.rho << ", k " << cell.slots;
  }
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
