#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "net/topology.h"

// Test-only topologies, built through the public TopologyBuilder: shapes
// some tests want as fixtures that no experiment runs.
namespace tempriv::net::fixtures {

/// Star: `leaves` sources all one hop from the central sink (node 0).
inline Topology star(std::size_t leaves) {
  if (leaves == 0) throw std::invalid_argument("star: no leaves");
  TopologyBuilder topo;
  topo.reserve(leaves + 1, leaves);
  const NodeId hub = topo.add_node({0.0, 0.0});
  topo.set_sink(hub);
  for (std::size_t i = 0; i < leaves; ++i) {
    const double angle = 2.0 * 3.14159265358979323846 *
                         static_cast<double>(i) / static_cast<double>(leaves);
    const NodeId leaf = topo.add_node({std::cos(angle), std::sin(angle)});
    topo.add_edge(hub, leaf);
  }
  return topo.build();
}

/// Complete binary routing tree of the given depth; the root (node 0) is
/// the sink, leaves are `depth` hops away. Node count is 2^(depth+1) − 1.
inline Topology binary_tree(std::size_t depth) {
  TopologyBuilder topo;
  const std::size_t nodes = (std::size_t{1} << (depth + 1)) - 1;
  topo.reserve(nodes, nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    // Position by level: x = index within level, y = level.
    std::size_t level = 0;
    while ((std::size_t{1} << (level + 1)) - 1 <= i) ++level;
    const std::size_t offset = i - ((std::size_t{1} << level) - 1);
    topo.add_node({static_cast<double>(offset), static_cast<double>(level)});
  }
  for (std::size_t i = 1; i < nodes; ++i) {
    topo.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i - 1) / 2));
  }
  topo.set_sink(0);
  return topo.build();
}

}  // namespace tempriv::net::fixtures
