#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "net/routing.h"

namespace tempriv::net {
namespace {

TEST(Topology, AddNodesAndEdges) {
  TopologyBuilder builder;
  const NodeId a = builder.add_node({1.0, 2.0});
  const NodeId b = builder.add_node();
  EXPECT_EQ(builder.node_count(), 2u);
  const Topology isolated = TopologyBuilder(builder).build();
  EXPECT_EQ(isolated.node_count(), 2u);
  EXPECT_FALSE(isolated.has_edge(a, b));
  builder.add_edge(a, b);
  const Topology topo = builder.build();
  EXPECT_EQ(builder.node_count(), 0u);  // build() empties the builder
  EXPECT_TRUE(topo.has_edge(a, b));
  EXPECT_TRUE(topo.has_edge(b, a));
  EXPECT_DOUBLE_EQ(topo.position(a).x, 1.0);
  EXPECT_DOUBLE_EQ(topo.position(a).y, 2.0);
}

TEST(Topology, IgnoresSelfLoopsAndDuplicates) {
  TopologyBuilder builder;
  const NodeId a = builder.add_node();
  const NodeId b = builder.add_node();
  builder.add_edge(a, a);
  builder.add_edge(a, b);
  builder.add_edge(a, b);
  const Topology topo = builder.build();
  EXPECT_FALSE(topo.has_edge(a, a));
  EXPECT_EQ(topo.neighbors(a).size(), 1u);
  EXPECT_EQ(topo.edge_count(), 1u);
}

TEST(Topology, ValidatesIds) {
  TopologyBuilder builder;
  builder.add_node();
  EXPECT_THROW(builder.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW(builder.set_sink(9), std::out_of_range);
  EXPECT_THROW(builder.add_sink(9), std::out_of_range);
  const Topology topo = builder.build();
  EXPECT_THROW(topo.neighbors(9), std::out_of_range);
  EXPECT_THROW(topo.position(9), std::out_of_range);
  EXPECT_FALSE(topo.has_edge(0, 9));
  EXPECT_EQ(topo.sink(), kInvalidNode);
}

TEST(Topology, LineHasExpectedShape) {
  const Topology topo = Topology::line(5);
  EXPECT_EQ(topo.node_count(), 5u);
  EXPECT_EQ(topo.sink(), 4u);
  EXPECT_EQ(topo.neighbors(0).size(), 1u);
  EXPECT_EQ(topo.neighbors(2).size(), 2u);
  EXPECT_THROW(Topology::line(1), std::invalid_argument);
}

TEST(Topology, GridHasFourConnectivity) {
  const Topology topo = Topology::grid(4, 3);
  EXPECT_EQ(topo.node_count(), 12u);
  EXPECT_EQ(topo.sink(), 0u);
  // Corner has 2 neighbors, edge 3, interior 4.
  EXPECT_EQ(topo.neighbors(0).size(), 2u);
  EXPECT_EQ(topo.neighbors(1).size(), 3u);
  EXPECT_EQ(topo.neighbors(5).size(), 4u);
  EXPECT_THROW(Topology::grid(0, 3), std::invalid_argument);
}

TEST(Topology, GridSpacingSetsPositions) {
  const Topology topo = Topology::grid(3, 3, 2.5);
  EXPECT_DOUBLE_EQ(topo.position(4).x, 2.5);  // node (1,1)
  EXPECT_DOUBLE_EQ(topo.position(4).y, 2.5);
}

TEST(Topology, RandomGeometricConnectsCloseNodes) {
  sim::RandomStream rng(77);
  const Topology topo = Topology::random_geometric(50, 10.0, 3.0, rng);
  EXPECT_EQ(topo.node_count(), 50u);
  for (NodeId a = 0; a < 50; ++a) {
    for (NodeId b = 0; b < 50; ++b) {
      if (a == b) continue;
      const auto& pa = topo.position(a);
      const auto& pb = topo.position(b);
      const double d2 = (pa.x - pb.x) * (pa.x - pb.x) +
                        (pa.y - pb.y) * (pa.y - pb.y);
      EXPECT_EQ(topo.has_edge(a, b), d2 <= 9.0) << a << "," << b;
    }
  }
}

TEST(Topology, RandomGeometricIsDeterministicPerSeed) {
  sim::RandomStream rng1(5);
  sim::RandomStream rng2(5);
  const Topology a = Topology::random_geometric(30, 10.0, 2.0, rng1);
  const Topology b = Topology::random_geometric(30, 10.0, 2.0, rng2);
  for (NodeId id = 0; id < 30; ++id) {
    EXPECT_DOUBLE_EQ(a.position(id).x, b.position(id).x);
    const auto na = a.neighbors(id);
    const auto nb = b.neighbors(id);
    EXPECT_TRUE(std::ranges::equal(na, nb)) << "node " << id;
  }
}

TEST(Topology, ConvergingPathsMatchRequestedHopCounts) {
  const auto built = Topology::converging_paths({15, 22, 9, 11}, 3);
  const RoutingTable routing(built.topology);
  ASSERT_EQ(built.sources.size(), 4u);
  EXPECT_EQ(routing.hops_to_sink(built.sources[0]), 15);
  EXPECT_EQ(routing.hops_to_sink(built.sources[1]), 22);
  EXPECT_EQ(routing.hops_to_sink(built.sources[2]), 9);
  EXPECT_EQ(routing.hops_to_sink(built.sources[3]), 11);
  EXPECT_TRUE(routing.fully_connected());
}

TEST(Topology, ConvergingPathsShareTrunk) {
  const auto built = Topology::converging_paths({5, 6}, 2);
  const RoutingTable routing(built.topology);
  const auto path_a = routing.path_to_sink(built.sources[0]);
  const auto path_b = routing.path_to_sink(built.sources[1]);
  // The last shared_tail+1 nodes (trunk + sink) are identical.
  ASSERT_GE(path_a.size(), 3u);
  ASSERT_GE(path_b.size(), 3u);
  EXPECT_EQ(path_a[path_a.size() - 3], path_b[path_b.size() - 3]);
  EXPECT_EQ(path_a.back(), path_b.back());
  // But the sources are distinct.
  EXPECT_NE(built.sources[0], built.sources[1]);
}

TEST(Topology, ConvergingPathsWithZeroTailJoinSinkDirectly) {
  const auto built = Topology::converging_paths({4, 7}, 0);
  const RoutingTable routing(built.topology);
  EXPECT_EQ(routing.hops_to_sink(built.sources[0]), 4);
  EXPECT_EQ(routing.hops_to_sink(built.sources[1]), 7);
}

TEST(Topology, ConvergingPathsValidation) {
  EXPECT_THROW(Topology::converging_paths({}, 0), std::invalid_argument);
  EXPECT_THROW(Topology::converging_paths({3, 2}, 2), std::invalid_argument);
}

TEST(Topology, PaperFigure1MatchesEvaluationSetup) {
  const auto built = Topology::paper_figure1();
  const RoutingTable routing(built.topology);
  ASSERT_EQ(built.sources.size(), 4u);
  EXPECT_EQ(routing.hops_to_sink(built.sources[0]), 15);  // S1
  EXPECT_EQ(routing.hops_to_sink(built.sources[1]), 22);  // S2
  EXPECT_EQ(routing.hops_to_sink(built.sources[2]), 9);   // S3
  EXPECT_EQ(routing.hops_to_sink(built.sources[3]), 11);  // S4
}

}  // namespace
}  // namespace tempriv::net
