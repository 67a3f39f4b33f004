#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "sim/random.h"

namespace tempriv::oracles {

/// A random-geometric field as the pre-CSR builders made it: one adjacency
/// list per node and a nearest-sink routing tree, with no shared code with
/// net::TopologyBuilder.
struct GeometricField {
  std::vector<net::Position> positions;
  std::vector<std::vector<net::NodeId>> rows;  // each ascending
  std::size_t edge_count = 0;
  std::vector<net::NodeId> next_hop;  // kInvalidNode for sinks, unreachable
  std::vector<net::NodeId> sink_of;   // kInvalidNode for unreachable nodes
  std::vector<std::size_t> hops;      // 0 for sinks and unreachable nodes
  std::size_t unreachable = 0;
};

/// The O(n²) pairwise-distance builder Topology::random_geometric_multi_sink
/// replaced, with nodes 0..sink_count-1 as the sinks, followed by a
/// queue-based BFS from the sinks in id order over ascending rows. Placement
/// loop and distance predicate are the expressions the production grid-hash
/// builder must match bit-for-bit (same draws, same edge set, same tree).
GeometricField brute_force_geometric(std::size_t n, double side, double radius,
                                     std::size_t sink_count,
                                     sim::RandomStream& rng);

}  // namespace tempriv::oracles
