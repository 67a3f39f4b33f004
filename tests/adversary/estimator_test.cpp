#include "adversary/estimator.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tempriv::adversary {
namespace {

net::Packet make_packet(net::NodeId origin, std::uint16_t hops,
                        std::uint64_t uid) {
  net::Packet packet;
  packet.header.origin = origin;
  packet.header.hop_count = hops;
  packet.uid = uid;
  return packet;
}

TEST(BaselineAdversary, EstimateIsArrivalMinusKnownDelays) {
  // x̂ = z − h·τ − h/µ with τ = 1, 1/µ = 30, h = 15 (paper flow S1).
  BaselineAdversary adversary(1.0, 30.0);
  adversary.on_delivery(make_packet(7, 15, 0), 500.0);
  ASSERT_EQ(adversary.estimates().size(), 1u);
  EXPECT_DOUBLE_EQ(adversary.estimates()[0].estimated_creation,
                   500.0 - 15.0 * 1.0 - 15.0 * 30.0);
  EXPECT_EQ(adversary.estimates()[0].flow, 7u);
  EXPECT_DOUBLE_EQ(adversary.estimates()[0].arrival, 500.0);
}

TEST(BaselineAdversary, NoDelayNetworkEstimateIsExact) {
  BaselineAdversary adversary(1.0, 0.0);
  adversary.on_delivery(make_packet(2, 5, 0), 105.0);
  EXPECT_DOUBLE_EQ(adversary.estimates()[0].estimated_creation, 100.0);
}

TEST(BaselineAdversary, ValidatesKnowledge) {
  EXPECT_THROW(BaselineAdversary(-1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BaselineAdversary(1.0, -5.0), std::invalid_argument);
}

TEST(Adversary, TracksFlowsSeparately) {
  BaselineAdversary adversary(1.0, 0.0);
  adversary.on_delivery(make_packet(1, 5, 0), 10.0);
  adversary.on_delivery(make_packet(2, 7, 1), 11.0);
  adversary.on_delivery(make_packet(1, 5, 2), 12.0);
  EXPECT_EQ(adversary.estimates_for_flow(1).size(), 2u);
  EXPECT_EQ(adversary.estimates_for_flow(2).size(), 1u);
  EXPECT_TRUE(adversary.estimates_for_flow(9).empty());
}

TEST(AdaptiveAdversary, UsesBaselineRuleAtLowTraffic) {
  // Slow flow: λ̂ small, Erlang loss below threshold -> per-hop delay 1/µ.
  AdaptiveAdversary adversary({1.0, 30.0, 10, 0.1});
  double arrival = 0.0;
  for (int i = 0; i < 5; ++i) {
    arrival += 100.0;  // λ̂ = 0.01 -> ρ = 0.3, E(0.3, 10) ≈ 0
    adversary.on_delivery(make_packet(1, 15, i), arrival);
  }
  EXPECT_FALSE(adversary.in_preemption_regime());
  const auto& last = adversary.estimates().back();
  EXPECT_DOUBLE_EQ(last.estimated_creation,
                   arrival - 15.0 * 1.0 - 15.0 * 30.0);
}

TEST(AdaptiveAdversary, SwitchesToPreemptionRuleAtHighTraffic) {
  // Fast flow: λ̂ ≈ 0.5, ρ = 15 with k = 10 -> E ≈ 0.36 > 0.1 threshold.
  AdaptiveAdversary adversary({1.0, 30.0, 10, 0.1});
  double arrival = 0.0;
  for (int i = 0; i < 20; ++i) {
    arrival += 2.0;
    adversary.on_delivery(make_packet(1, 15, i), arrival);
  }
  EXPECT_TRUE(adversary.in_preemption_regime());
  // Per-hop delay estimate becomes k/λ̂ = 10/0.5 = 20.
  const auto& last = adversary.estimates().back();
  EXPECT_NEAR(last.estimated_creation, arrival - 15.0 * 1.0 - 15.0 * 20.0, 1.0);
}

TEST(AdaptiveAdversary, AggregateVariantUsesTotalRateForTheTest) {
  // Each flow alone is below threshold, but their superposition is not —
  // the paper's literal λtot reading ("n sources converging one hop prior
  // to the sink"), enabled via aggregate_rate_test.
  AdaptiveAdversary adversary({1.0, 30.0, 10, 0.1, true});
  double arrival = 0.0;
  for (int i = 0; i < 30; ++i) {
    arrival += 5.0;  // per-flow λ̂ ≈ 0.2/0.2 interleaved below
    adversary.on_delivery(make_packet(1, 15, 2 * i), arrival);
    adversary.on_delivery(make_packet(2, 9, 2 * i + 1), arrival + 1.0);
  }
  // λ̂tot ≈ 0.4 -> ρ = 12 -> E(12, 10) ≈ 0.2 > 0.1.
  EXPECT_TRUE(adversary.in_preemption_regime());
}

TEST(AdaptiveAdversary, PerFlowVariantIgnoresOtherFlowsInTheTest) {
  // Same traffic as above, but the self-consistent per-flow test sees only
  // ρ = 0.2 * 30 = 6 per flow, E(6, 10) ≈ 0.04 < 0.1 -> baseline rule.
  AdaptiveAdversary adversary({1.0, 30.0, 10, 0.1});
  double arrival = 0.0;
  for (int i = 0; i < 30; ++i) {
    arrival += 5.0;
    adversary.on_delivery(make_packet(1, 15, 2 * i), arrival);
    adversary.on_delivery(make_packet(2, 9, 2 * i + 1), arrival + 1.0);
  }
  EXPECT_FALSE(adversary.in_preemption_regime());
}

TEST(AdaptiveAdversary, FirstPacketFallsBackToBaseline) {
  // With a single observation there is no rate estimate yet.
  AdaptiveAdversary adversary({1.0, 30.0, 10, 0.1});
  adversary.on_delivery(make_packet(1, 10, 0), 50.0);
  EXPECT_FALSE(adversary.in_preemption_regime());
  EXPECT_DOUBLE_EQ(adversary.estimates()[0].estimated_creation,
                   50.0 - 10.0 - 300.0);
}

TEST(AdaptiveAdversary, ZeroConfiguredDelayActsLikeNoDelayBaseline) {
  AdaptiveAdversary adversary({1.0, 0.0, 10, 0.1});
  adversary.on_delivery(make_packet(1, 4, 0), 10.0);
  EXPECT_DOUBLE_EQ(adversary.estimates()[0].estimated_creation, 6.0);
}

TEST(AdaptiveAdversary, ValidatesConfig) {
  EXPECT_THROW(AdaptiveAdversary({-1.0, 30.0, 10, 0.1}), std::invalid_argument);
  EXPECT_THROW(AdaptiveAdversary({1.0, 30.0, 0, 0.1}), std::invalid_argument);
  EXPECT_THROW(AdaptiveAdversary({1.0, 30.0, 10, 0.0}), std::invalid_argument);
  EXPECT_THROW(AdaptiveAdversary({1.0, 30.0, 10, 1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::adversary
