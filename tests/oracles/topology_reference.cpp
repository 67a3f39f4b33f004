#include "oracles/topology_reference.h"

#include <queue>

namespace tempriv::oracles {

GeometricField brute_force_geometric(std::size_t n, double side, double radius,
                                     std::size_t sink_count,
                                     sim::RandomStream& rng) {
  GeometricField field;
  for (std::size_t i = 0; i < n; ++i) {
    field.positions.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  // Pairs in ascending (a, b) order, so every row is built ascending.
  field.rows.resize(n);
  const double r2 = radius * radius;
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) {
      const net::Position& pa = field.positions[a];
      const net::Position& pb = field.positions[b];
      const double dx = pa.x - pb.x;
      const double dy = pa.y - pb.y;
      if (dx * dx + dy * dy <= r2) {
        field.rows[a].push_back(b);
        field.rows[b].push_back(a);
        ++field.edge_count;
      }
    }
  }
  field.next_hop.assign(n, net::kInvalidNode);
  field.sink_of.assign(n, net::kInvalidNode);
  field.hops.assign(n, 0);
  std::queue<net::NodeId> queue;
  for (net::NodeId sink = 0; sink < sink_count; ++sink) {
    field.sink_of[sink] = sink;
    queue.push(sink);
  }
  std::size_t reached = 0;
  while (!queue.empty()) {
    const net::NodeId current = queue.front();
    queue.pop();
    ++reached;
    for (const net::NodeId nbr : field.rows[current]) {
      if (field.sink_of[nbr] != net::kInvalidNode) continue;
      field.sink_of[nbr] = field.sink_of[current];
      field.next_hop[nbr] = current;
      field.hops[nbr] = field.hops[current] + 1;
      queue.push(nbr);
    }
  }
  field.unreachable = n - reached;
  return field;
}

}  // namespace tempriv::oracles
