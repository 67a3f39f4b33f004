#include "queueing/dimensioning.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/routing.h"
#include "net/topology.h"
#include "queueing/erlang.h"

namespace tempriv::queueing {
namespace {

TEST(AggregateRates, LineTopologyAccumulatesTowardSink) {
  // 0 -> 1 -> 2 -> 3(sink); only node 0 sources traffic.
  RoutingTree tree{{1, 2, 3, kNoParent}};
  const auto rates = aggregate_rates(tree, {0.5, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 0.5);
  EXPECT_DOUBLE_EQ(rates[2], 0.5);
  EXPECT_DOUBLE_EQ(rates[3], 0.5);
}

TEST(AggregateRates, TreeSuperposesChildFlows) {
  // Two leaves (0, 1) -> relay 2 -> sink 3; relay also sources traffic.
  RoutingTree tree{{2, 2, 3, kNoParent}};
  const auto rates = aggregate_rates(tree, {0.2, 0.3, 0.1, 0.0});
  EXPECT_DOUBLE_EQ(rates[2], 0.2 + 0.3 + 0.1);
  EXPECT_DOUBLE_EQ(rates[3], 0.6);
}

TEST(AggregateRates, PaperFigure1ShapedTree) {
  // Four branches with a shared trunk: trunk nodes carry all four flows.
  // Layout: sources 0..3 -> trunk 4 -> trunk 5 -> sink 6.
  RoutingTree tree{{4, 4, 4, 4, 5, 6, kNoParent}};
  const auto rates = aggregate_rates(tree, {0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(rates[4], 2.0);
  EXPECT_DOUBLE_EQ(rates[5], 2.0);
  EXPECT_DOUBLE_EQ(rates[6], 2.0);
}

TEST(AggregateRates, ValidatesInput) {
  RoutingTree tree{{1, kNoParent}};
  EXPECT_THROW(aggregate_rates(tree, {1.0}), std::invalid_argument);  // size
  EXPECT_THROW(aggregate_rates(tree, {-1.0, 0.0}), std::invalid_argument);
  RoutingTree cyclic{{1, 0}};
  EXPECT_THROW(aggregate_rates(cyclic, {1.0, 0.0}), std::invalid_argument);
  RoutingTree bad_parent{{5, kNoParent}};
  EXPECT_THROW(aggregate_rates(bad_parent, {1.0, 0.0}), std::invalid_argument);
}

TEST(DimensionMuForLoss, HitsTargetLossAtEveryNode) {
  const std::vector<double> rates{0.5, 2.0, 0.0, 8.0};
  const auto mus = dimension_mu_for_loss(rates, 10, 0.1);
  ASSERT_EQ(mus.size(), rates.size());
  EXPECT_DOUBLE_EQ(mus[2], 0.0);  // idle node delays nothing
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_NEAR(erlang_loss(rates[i] / mus[i], 10), 0.1, 1e-8) << "node " << i;
  }
}

TEST(DimensionMuForLoss, BusierNodesUseShorterDelays) {
  const auto mus = dimension_mu_for_loss({0.5, 4.0}, 10, 0.1);
  EXPECT_GT(1.0 / mus[0], 1.0 / mus[1]);  // mean delay shrinks with traffic
}

TEST(ErlangDimensioning, PaperFigure1Tree) {
  // Eq. (5) on the Figure-1 tree: each source sends λ = 0.5, every node has
  // k = 10 slots, and each node's µ makes its loss E(λᵢ/µᵢ, 10) = α = 0.1.
  // The four flows share a 3-hop trunk, which carries 4× a branch's
  // traffic and so affords only a quarter of its mean delay: nodes nearer
  // the sink must delay less (§3.3, §4). Analytic: no simulation, no seed.
  const auto built = net::Topology::paper_figure1();
  const net::RoutingTable routing(built.topology);
  RoutingTree tree;
  std::vector<double> source_rates(built.topology.node_count(), 0.0);
  for (net::NodeId id = 0; id < built.topology.node_count(); ++id) {
    const net::NodeId next = routing.next_hop(id);
    tree.parent.push_back(next == net::kInvalidNode ? kNoParent : next);
  }
  for (const net::NodeId source : built.sources) source_rates[source] = 0.5;
  const auto rates = aggregate_rates(tree, source_rates);
  const auto mus = dimension_mu_for_loss(rates, 10, 0.1);

  // Flow S1's path: 12 branch nodes, then the trunk.
  for (const net::NodeId node : routing.path_to_sink(built.sources[0])) {
    if (node == built.topology.sink()) continue;
    const bool trunk = routing.hops_to_sink(node) <= 3;
    EXPECT_DOUBLE_EQ(rates[node], trunk ? 2.0 : 0.5) << "node " << node;
    EXPECT_NEAR(1.0 / mus[node], trunk ? 3.755291 : 15.021165, 1e-5)
        << "node " << node;
    EXPECT_NEAR(erlang_loss(rates[node] / mus[node], 10), 0.1, 1e-8);
  }

  // Expected packets buffered (M/M/∞ at the same µ): 368.0 dimensioned
  // against 915.0 for a uniform 1/µ = 30. These sums run over every node
  // with traffic, the sink included, which never delays and contributes
  // 7.5 and 60.0 of them; the forwarding nodes alone hold 360.5 and 855.0.
  std::vector<double> uniform_mus(rates.size(), 1.0 / 30.0);
  EXPECT_NEAR(expected_network_buffering(rates, mus), 368.0185, 1e-4);
  EXPECT_NEAR(expected_network_buffering(rates, uniform_mus), 915.0, 1e-9);
  std::vector<double> forwarding_rates = rates;
  forwarding_rates[built.topology.sink()] = 0.0;
  EXPECT_NEAR(expected_network_buffering(forwarding_rates, mus), 360.5080,
              1e-4);
  EXPECT_NEAR(expected_network_buffering(forwarding_rates, uniform_mus), 855.0,
              1e-9);
}

TEST(ExpectedNetworkBuffering, SumsRho) {
  // Σ λi/µi, the M/M/∞ expected total occupancy.
  const double total = expected_network_buffering({1.0, 2.0, 0.0},
                                                  {0.5, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(total, 1.0 / 0.5 + 2.0 / 1.0);
}

TEST(ExpectedNetworkBuffering, Validates) {
  EXPECT_THROW(expected_network_buffering({1.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(expected_network_buffering({1.0}, {0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tempriv::queueing
