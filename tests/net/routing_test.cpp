#include "net/routing.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace tempriv::net {
namespace {

TEST(RoutingTable, RequiresSink) {
  TopologyBuilder builder;
  builder.add_node();
  const Topology topo = builder.build();
  EXPECT_THROW(RoutingTable{topo}, std::invalid_argument);
}

TEST(RoutingTable, LineRoutesTowardSink) {
  const Topology topo = Topology::line(6);  // sink = 5
  const RoutingTable routing(topo);
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(routing.next_hop(id), id + 1);
    EXPECT_EQ(routing.hops_to_sink(id), 5 - id);
  }
  EXPECT_EQ(routing.next_hop(5), kInvalidNode);
  EXPECT_EQ(routing.hops_to_sink(5), 0);
  EXPECT_TRUE(routing.fully_connected());
}

TEST(RoutingTable, GridUsesManhattanDistances) {
  const Topology topo = Topology::grid(4, 4);  // sink at (0,0)
  const RoutingTable routing(topo);
  // Node (3,3) has id 15 and Manhattan distance 6.
  EXPECT_EQ(routing.hops_to_sink(15), 6);
  EXPECT_EQ(routing.hops_to_sink(1), 1);
  EXPECT_EQ(routing.hops_to_sink(4), 1);
}

TEST(RoutingTable, PathToSinkIsConsistent) {
  const Topology topo = Topology::grid(5, 5);
  const RoutingTable routing(topo);
  const auto path = routing.path_to_sink(24);
  EXPECT_EQ(path.front(), 24u);
  EXPECT_EQ(path.back(), topo.sink());
  EXPECT_EQ(path.size(), routing.hops_to_sink(24) + 1u);
  // Every consecutive pair must be an edge, and hop counts must decrease.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(topo.has_edge(path[i], path[i + 1]));
    EXPECT_EQ(routing.hops_to_sink(path[i]), routing.hops_to_sink(path[i + 1]) + 1);
  }
}

TEST(RoutingTable, DisconnectedNodesAreUnreachable) {
  // Line 0 - 1 - 2 = sink, plus an unconnected node 3.
  TopologyBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.set_sink(2);
  const NodeId island = 3;
  const RoutingTable routing(builder.build());
  EXPECT_FALSE(routing.reachable(island));
  EXPECT_FALSE(routing.fully_connected());
  EXPECT_THROW(routing.hops_to_sink(island), std::out_of_range);
  EXPECT_THROW(routing.path_to_sink(island), std::out_of_range);
  EXPECT_TRUE(routing.reachable(0));
}

TEST(RoutingTable, DeterministicParentSelection) {
  // Diamond: 0 and 1 both one hop from sink 3; node 2 connects to both.
  // BFS with sorted neighbor order must always pick the smaller parent.
  TopologyBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.set_sink(3);
  builder.add_edge(3, 0);
  builder.add_edge(3, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 2);
  const Topology topo = builder.build();
  const RoutingTable a(topo);
  const RoutingTable b(topo);
  EXPECT_EQ(a.next_hop(2), 0u);
  EXPECT_EQ(a.next_hop(2), b.next_hop(2));
  EXPECT_EQ(a.hops_to_sink(2), 2);
}

TEST(RoutingTable, LongestRepresentableRouteIsExact) {
  // 65536 nodes: node 0 sits 65535 hops out, the 16-bit maximum.
  const Topology topo = Topology::line(65536);
  const RoutingTable routing(topo);
  EXPECT_EQ(routing.hops_to_sink(0), 65535);
  EXPECT_EQ(routing.path_to_sink(0).size(), 65536u);
}

TEST(RoutingTable, RouteLongerThanHopCountThrows) {
  // One hop past the limit used to wrap silently (line(70000) reported
  // 4463 hops for a 69999-hop path).
  for (std::size_t n : {65537u, 70000u}) {
    const Topology topo = Topology::line(n);
    try {
      const RoutingTable routing(topo);
      ADD_FAILURE() << "line(" << n << ") built a routing table";
    } catch (const std::length_error& e) {
      EXPECT_NE(std::string(e.what()).find("65535"), std::string::npos) << e.what();
    }
  }
}

TEST(RoutingTable, SharesTheTopologysTree) {
  // Construction copies no array: two tables over one field read the same
  // tree memory, and each reports that tree's exact size.
  const Topology topo = Topology::grid(8, 8);
  const RoutingTable a(topo);
  const RoutingTable b(topo);
  EXPECT_EQ(a.next_hops().data(), b.next_hops().data());
  EXPECT_EQ(a.next_hops().size(), topo.node_count());
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  EXPECT_EQ(a.memory_bytes(), 64 * (2 * sizeof(NodeId) + sizeof(std::uint16_t)));
}

TEST(RoutingTable, ValidatesIds) {
  const Topology topo = Topology::line(2);
  const RoutingTable routing(topo);
  EXPECT_THROW(routing.next_hop(9), std::out_of_range);
  EXPECT_THROW(routing.hops_to_sink(9), std::out_of_range);
  EXPECT_THROW(routing.reachable(9), std::out_of_range);
}

}  // namespace
}  // namespace tempriv::net
