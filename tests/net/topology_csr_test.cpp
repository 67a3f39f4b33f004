// CSR adjacency and spatial-hash construction regression suite: the packed
// sorted-row representation must agree with a straightforward builder-side
// reference on every topology factory, the grid-hash random_geometric must
// reproduce the O(n²) pairwise scan and a queue-based BFS bit-for-bit (same
// RNG draw order, same placements, same edge set, same routing tree), and
// multi-sink routing must hand every node to its nearest sink with
// actionable coverage diagnostics.

#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/routing.h"
#include "oracles/topology_reference.h"

namespace tempriv::net {
namespace {

using oracles::brute_force_geometric;

/// Checks the CSR invariants and cross-checks every row against has_edge.
void expect_csr_well_formed(const Topology& topo) {
  std::size_t total_degree = 0;
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    const auto row = topo.neighbors(id);
    total_degree += row.size();
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "node " << id;
    EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end())
        << "duplicate neighbor at node " << id;
    for (NodeId nbr : row) {
      ASSERT_LT(nbr, topo.node_count());
      EXPECT_NE(nbr, id) << "self loop at node " << id;
      EXPECT_TRUE(topo.has_edge(id, nbr));
      EXPECT_TRUE(topo.has_edge(nbr, id)) << "asymmetric edge " << id;
      // Symmetric row membership.
      const auto back = topo.neighbors(nbr);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), id));
    }
  }
  EXPECT_EQ(total_degree, 2 * topo.edge_count());
}

TEST(TopologyCsr, AllFactoriesProduceWellFormedAdjacency) {
  sim::RandomStream rng(123);
  const Topology geometric = Topology::random_geometric(60, 10.0, 2.5, rng);
  const std::vector<const Topology*> topos = {&geometric};
  expect_csr_well_formed(Topology::line(7));
  expect_csr_well_formed(Topology::grid(5, 4));
  expect_csr_well_formed(Topology::star(9));
  expect_csr_well_formed(Topology::binary_tree(4));
  expect_csr_well_formed(Topology::converging_paths({6, 9, 5}, 2).topology);
  expect_csr_well_formed(Topology::paper_figure1().topology);
  expect_csr_well_formed(geometric);
}

TEST(TopologyCsr, MatchesIncrementalEdgeInsertion) {
  // Hand-built graph with duplicate and reversed insertions: the CSR rows
  // must collapse them and agree with the de-duplicated edge set.
  TopologyBuilder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  const std::vector<std::pair<NodeId, NodeId>> inserted = {
      {0, 1}, {1, 0}, {0, 1}, {2, 5}, {4, 3}, {3, 4}, {1, 5}, {0, 5}};
  std::set<std::pair<NodeId, NodeId>> unique;
  for (const auto& [a, b] : inserted) {
    builder.add_edge(a, b);
    unique.emplace(std::min(a, b), std::max(a, b));
  }
  const Topology topo = builder.build();
  EXPECT_EQ(topo.edge_count(), unique.size());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    std::vector<NodeId> expected;
    for (const auto& [a, b] : unique) {
      if (a == id) expected.push_back(b);
      if (b == id) expected.push_back(a);
    }
    std::sort(expected.begin(), expected.end());
    const auto row = topo.neighbors(id);
    EXPECT_TRUE(std::ranges::equal(row, expected)) << "node " << id;
  }
  expect_csr_well_formed(topo);
}

TEST(TopologyCsr, BuilderDuplicatesAndSelfLoopsMatchUpfrontBuild) {
  // A builder fed duplicates (both orientations) and self-loops, interleaved
  // with add_node, must build the same rows as one given each edge once.
  TopologyBuilder messy;
  for (int i = 0; i < 4; ++i) messy.add_node();
  messy.add_edge(0, 1);
  messy.add_edge(0, 2);
  messy.add_edge(2, 2);
  const NodeId added = messy.add_node();
  messy.add_edge(3, added);
  messy.add_edge(1, 0);
  messy.add_edge(0, 1);
  messy.add_edge(added, added);
  messy.add_edge(added, 1);
  const Topology topo = messy.build();

  TopologyBuilder clean;
  for (int i = 0; i < 5; ++i) clean.add_node();
  for (const auto& [a, b] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {3, 4}, {4, 1}}) {
    clean.add_edge(a, b);
  }
  const Topology upfront = clean.build();
  EXPECT_EQ(topo.edge_count(), 4u);
  EXPECT_EQ(topo.edge_count(), upfront.edge_count());
  EXPECT_TRUE(std::ranges::equal(topo.row_offsets(), upfront.row_offsets()));
  for (NodeId id = 0; id < upfront.node_count(); ++id) {
    EXPECT_TRUE(std::ranges::equal(topo.neighbors(id), upfront.neighbors(id)))
        << "node " << id;
  }
  expect_csr_well_formed(topo);

  // line() sizes every array exactly, so the accounting is exact: a built
  // topology holds positions, the sink and the CSR index, no edge list.
  const Topology line = Topology::line(100);
  const std::size_t nodes_and_sink = 100 * sizeof(Position) + sizeof(NodeId);
  EXPECT_EQ(line.edge_count(), 99u);
  EXPECT_EQ(line.memory_bytes(), nodes_and_sink + 101 * sizeof(std::uint32_t) +
                                     2 * 99 * sizeof(NodeId));
}

/// Draws `n` placements exactly as random_geometric does and returns the
/// grid-hash cell floor, extent / ceil(√n). A radius equal to it makes the
/// connection radius and the cell side the same double.
double cell_floor_for(std::size_t n, double side, std::uint64_t seed) {
  sim::RandomStream rng(seed);
  double min_x = side, max_x = 0.0, min_y = side, max_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, side);
    const double y = rng.uniform(0.0, side);
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  const double extent = std::max(max_x - min_x, max_y - min_y);
  return extent / std::ceil(std::sqrt(static_cast<double>(n)));
}

TEST(TopologyCsr, GridHashGeometricMatchesBruteForceReference) {
  // Same RNG seed through both builders: placements must be bit-identical
  // (identical draw order), the rows must match exactly and so must every
  // node's route, across sparse, dense and degenerate regimes, and on
  // fields large enough for a real cell grid (hundreds of cells, most pairs
  // across cell edges).
  struct Case {
    std::size_t n;
    double side;
    double radius;
    std::uint64_t seed;
    std::size_t sinks = 1;
  };
  const double unit_side_3000 = std::sqrt(3000.0);
  const double floor_2000 = cell_floor_for(2000, 40.0, 2001);
  const Case cases[] = {
      {40, 10.0, 2.0, 1001},                 // sparse
      {80, 8.0, 3.0, 1002},                  // dense neighborhoods
      {25, 5.0, 20.0, 1003},                 // radius > extent: complete graph
      {30, 10.0, 0.05, 1004},                // radius << spacing: mostly isolated
      {1, 4.0, 1.0, 1005},                   // single node
      {3000, unit_side_3000, 1.8, 1006},     // field_1m density: ~900 cells
      {1500, 20.0, 1.0, 1007},               // 400 cells, ~4 nodes each
      {2000, 40.0, floor_2000, 2001},        // radius == cell side exactly
      {2000, 40.0, 0.5 * floor_2000, 2001},  // cell side set by the √n floor
      {60, 0.0, 1.0, 1008},   // side 0: one cell, complete graph, widest scan
      {300, 10.0, 0.0, 1009},           // radius 0: only coincident nodes link
      {400, 12.0, -1.5, 1010},          // negative radius: |r| cells, r² test
      {1500, 20.0, 1.2, 1011, 7},       // multi-sink: nearest-sink tree
      {800, 15.0, 1.0, 1012, 40},       // many sinks: many equal-distance ties
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " side=" << c.side
                                    << " radius=" << c.radius << " sinks=" << c.sinks);
    sim::RandomStream rng_fast(c.seed);
    sim::RandomStream rng_ref(c.seed);
    const Topology fast =
        c.sinks == 1 ? Topology::random_geometric(c.n, c.side, c.radius, rng_fast)
                     : Topology::random_geometric_multi_sink(c.n, c.side, c.radius,
                                                             c.sinks, rng_fast);
    const oracles::GeometricField ref =
        brute_force_geometric(c.n, c.side, c.radius, c.sinks, rng_ref);
    ASSERT_EQ(fast.node_count(), ref.positions.size());
    // Both streams must have advanced identically (2n draws each).
    EXPECT_EQ(rng_fast.uniform(0.0, 1.0), rng_ref.uniform(0.0, 1.0));
    EXPECT_EQ(fast.edge_count(), ref.edge_count);
    ASSERT_EQ(fast.sinks().size(), c.sinks);
    for (NodeId s = 0; s < c.sinks; ++s) EXPECT_EQ(fast.sinks()[s], s);
    const RoutingTable routing(fast);
    EXPECT_EQ(routing.unreachable_count(), ref.unreachable);
    for (NodeId id = 0; id < c.n; ++id) {
      ASSERT_EQ(fast.position(id).x, ref.positions[id].x) << "node " << id;
      ASSERT_EQ(fast.position(id).y, ref.positions[id].y) << "node " << id;
      ASSERT_TRUE(std::ranges::equal(fast.neighbors(id), ref.rows[id]))
          << "edge mismatch at node " << id;
      ASSERT_EQ(routing.next_hop(id), ref.next_hop[id]) << "node " << id;
      ASSERT_EQ(routing.sink_of(id), ref.sink_of[id]) << "node " << id;
      ASSERT_EQ(routing.reachable(id), ref.sink_of[id] != kInvalidNode)
          << "node " << id;
      if (routing.reachable(id)) {
        ASSERT_EQ(routing.hops_to_sink(id), ref.hops[id]) << "node " << id;
      }
    }
  }
}

TEST(TopologyCsr, GeometricRejectsNonFiniteRadiusOrSide) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [side, radius] :
       {std::pair{10.0, nan}, std::pair{10.0, inf}, std::pair{10.0, -inf},
        std::pair{nan, 1.0}, std::pair{inf, 1.0}}) {
    SCOPED_TRACE(testing::Message() << "side=" << side << " radius=" << radius);
    sim::RandomStream rng(1);
    EXPECT_THROW(Topology::random_geometric(50, side, radius, rng),
                 std::invalid_argument);
    EXPECT_THROW(Topology::random_geometric_multi_sink(50, side, radius, 3, rng),
                 std::invalid_argument);
  }
}

TEST(TopologyCsr, MultiSinkGeometricPlacementsMatchSingleSink) {
  sim::RandomStream rng_multi(42);
  sim::RandomStream rng_single(42);
  const Topology multi =
      Topology::random_geometric_multi_sink(50, 10.0, 2.0, 4, rng_multi);
  const Topology single = Topology::random_geometric(50, 10.0, 2.0, rng_single);
  ASSERT_EQ(multi.sinks().size(), 4u);
  for (NodeId id = 0; id < 50; ++id) {
    EXPECT_EQ(multi.position(id).x, single.position(id).x);
    EXPECT_TRUE(std::ranges::equal(multi.neighbors(id), single.neighbors(id)));
  }
  EXPECT_EQ(multi.sink(), single.sink());  // primary sink unchanged
  for (NodeId s = 0; s < 4; ++s) EXPECT_TRUE(multi.is_sink(s));
  EXPECT_FALSE(multi.is_sink(4));
  EXPECT_THROW(
      Topology::random_geometric_multi_sink(10, 5.0, 1.0, 0, rng_multi),
      std::invalid_argument);
  EXPECT_THROW(
      Topology::random_geometric_multi_sink(10, 5.0, 1.0, 11, rng_multi),
      std::invalid_argument);
}

TEST(TopologyCsr, NearestSinkRoutingAndCoverageDiagnostics) {
  // Two 3-node islands, one sink each, plus one disconnected node: routing
  // must assign each island to its own sink and count the stray.
  TopologyBuilder builder;
  for (int i = 0; i < 7; ++i) builder.add_node();
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.set_sink(0);
  builder.add_sink(3);
  builder.add_sink(3);  // already registered: ignored
  const Topology topo = builder.build();
  EXPECT_EQ(topo.sinks().size(), 2u);
  const RoutingTable routing(topo);
  EXPECT_EQ(routing.sink_of(2), 0u);
  EXPECT_EQ(routing.sink_of(5), 3u);
  EXPECT_EQ(routing.sink_of(0), 0u);
  EXPECT_EQ(routing.sink_of(6), kInvalidNode);
  EXPECT_EQ(routing.hops_to_sink(2), 2u);
  EXPECT_EQ(routing.hops_to_sink(5), 2u);
  EXPECT_EQ(routing.unreachable_count(), 1u);
  EXPECT_FALSE(routing.fully_connected());
  EXPECT_FALSE(routing.reachable(6));

  // Fully covered multi-sink graph reports zero unreachable.
  TopologyBuilder line;
  for (int i = 0; i < 6; ++i) line.add_node();
  for (NodeId i = 0; i + 1 < 6; ++i) line.add_edge(i, i + 1);
  line.set_sink(5);
  line.add_sink(0);
  const RoutingTable covered(line.build());
  EXPECT_EQ(covered.unreachable_count(), 0u);
  EXPECT_TRUE(covered.fully_connected());
}

TEST(TopologyCsr, SingleSinkRoutingUnchangedByRewrite) {
  // The historical deterministic-parent contract: among equal-distance
  // parents the smaller id wins (diamond 0-{1,2}-3, sink 0).
  TopologyBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_edge(0, 1);
  builder.add_edge(0, 2);
  builder.add_edge(1, 3);
  builder.add_edge(2, 3);
  builder.set_sink(0);
  const RoutingTable routing(builder.build());
  EXPECT_EQ(routing.next_hop(3), 1u);
  EXPECT_EQ(routing.sink_of(3), 0u);
  EXPECT_EQ(routing.unreachable_count(), 0u);
}

TEST(TopologyCsr, MemoryAccountingScalesWithGraphNotObjects) {
  sim::RandomStream rng(7);
  const Topology topo = Topology::random_geometric(2000, 44.7, 1.8, rng);
  const RoutingTable routing(topo);
  // Flat arrays only: a few dozen bytes per node + 8 per directed edge.
  EXPECT_GT(topo.memory_bytes(), 2000 * sizeof(Position));
  EXPECT_LT(topo.memory_bytes(),
            2000 * 128 + topo.edge_count() * 64);
  EXPECT_GE(routing.memory_bytes(), 2000 * 10);  // 4 + 2 + 4 bytes per node
}

}  // namespace
}  // namespace tempriv::net
