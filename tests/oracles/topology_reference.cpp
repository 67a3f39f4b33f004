#include "oracles/topology_reference.h"

#include <vector>

namespace tempriv::oracles {

net::Topology brute_force_geometric(std::size_t n, double side, double radius,
                                    sim::RandomStream& rng) {
  std::vector<net::Position> positions;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  net::TopologyBuilder topo;
  for (const net::Position& p : positions) topo.add_node(p);
  const double r2 = radius * radius;
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) {
      const net::Position& pa = positions[a];
      const net::Position& pb = positions[b];
      const double dx = pa.x - pb.x;
      const double dy = pa.y - pb.y;
      if (dx * dx + dy * dy <= r2) topo.add_edge(a, b);
    }
  }
  topo.set_sink(0);
  return topo.build();
}

}  // namespace tempriv::oracles
