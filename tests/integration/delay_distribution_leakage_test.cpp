// §3.1: why exponential delays? At equal mean delay (equal latency and
// M/M/∞ buffer cost) the exponential is the maximum-entropy delay
// (DelayDistribution.ExponentialMaximizesEntropyAtEqualMean) and leaks the
// least. MSE, the paper's proxy, ranks the same four delays differently:
// the heavy-tailed Pareto posts the largest MSE while leaking more than
// both light-tailed delays.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/estimator.h"
#include "adversary/ground_truth.h"
#include "core/delay_distribution.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "infotheory/estimators.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace tempriv {
namespace {

crypto::PayloadCodec& codec() {
  static crypto::PayloadCodec instance(crypto::Speck64_128::Key{
      3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3});
  return instance;
}

/// Ranked (copula) estimate of I(X; X + Y) for creations X uniform over a
/// 100-unit window, 50,000 pairs, 24 bins. The ranked estimator stays
/// robust under the Pareto tail, where equal-width bins collapse.
double ranked_leakage(const core::DelayDistribution& delay,
                      std::uint64_t seed) {
  constexpr std::size_t kTrials = 50000;
  sim::RandomStream rng(seed);
  std::vector<double> xs(kTrials);
  std::vector<double> zs(kTrials);
  for (std::size_t t = 0; t < kTrials; ++t) {
    xs[t] = rng.uniform(0.0, 100.0);
    zs[t] = xs[t] + delay.sample(rng);
  }
  return infotheory::mutual_information_ranked(xs, zs, 24);
}

/// The sink's baseline adversary (which knows the mean delay) against one
/// periodic source (1/λ = 5, 2,000 packets) crossing 9 delaying hops.
double adversary_mse(const core::DelayDistribution& delay, std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, net::Topology::line(10),
                       core::DisciplineSpec::unlimited(delay.clone()), {},
                       sim::RandomStream(seed));
  adversary::BaselineAdversary adversary(1.0, delay.mean());
  adversary::GroundTruthRecorder truth(codec());
  network.add_sink_observer(&adversary);
  network.add_sink_observer(&truth);
  workload::PeriodicSource source(network, codec(), 0,
                                  sim::RandomStream(seed + 1), 5.0, 2000);
  source.start(0.0);
  sim.run();
  return truth.score_all(adversary).mse();
}

TEST(DelayDistributionLeakage, ExponentialLeaksLeastAtEqualMean) {
  // Mean 30 each; row i uses seed 900 + 100·i (leakage) and that + 7
  // (network). Here: Î constant 3.178 > Pareto 1.217 > uniform 0.747 >
  // exponential 0.628; MSE constant 0 < uniform 2,677 < exponential 7,947
  // < Pareto 491,880. Over 12 seed sets (these and 11 more) both orderings
  // held every time; uniform − exponential Î read 0.110–0.121 nats, and
  // the exponential/uniform MSE ratio 2.74–3.25 (9 hops make the MSE
  // 9·Var(Y): 900 against 300, a ratio of 3). The margins below are half
  // the smallest Î gap and 1.5× the largest ratio deviation, rounded.
  const core::ConstantDelay constant(30.0);
  const core::UniformDelay uniform(0.0, 60.0);
  const core::ExponentialDelay exponential(30.0);
  const core::ParetoDelay pareto(10.0, 1.5);
  const core::DelayDistribution* const kRows[] = {&constant, &uniform,
                                                  &exponential, &pareto};
  struct Row {
    double leakage;
    double mse;
  };
  std::vector<Row> rows;
  std::uint64_t seed = 900;
  for (const core::DelayDistribution* delay : kRows) {
    ASSERT_DOUBLE_EQ(delay->mean(), 30.0) << delay->name();
    rows.push_back(
        {ranked_leakage(*delay, seed), adversary_mse(*delay, seed + 7)});
    seed += 100;
  }
  const Row& c = rows[0];
  const Row& u = rows[1];
  const Row& e = rows[2];
  const Row& p = rows[3];

  EXPECT_LT(e.leakage, u.leakage);
  EXPECT_LT(u.leakage, p.leakage);
  EXPECT_LT(p.leakage, c.leakage);
  EXPECT_GT(u.leakage - e.leakage, 0.05);

  EXPECT_NEAR(c.mse, 0.0, 1e-6);  // a constant delay is subtracted exactly
  EXPECT_LT(c.mse, u.mse);
  EXPECT_LT(u.mse, e.mse);
  EXPECT_LT(e.mse, p.mse);
  EXPECT_NEAR(e.mse / u.mse, 3.0, 0.4);
}

}  // namespace
}  // namespace tempriv
