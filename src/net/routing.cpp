#include "net/routing.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace tempriv::net {

RoutingTable::RoutingTable(const Topology& topo) : topology_(topo) {
  if (topo.sink() == kInvalidNode) {
    throw std::invalid_argument("RoutingTable: topology has no sink");
  }
  if (field().route_overflow) {
    std::string message = "RoutingTable: a route is longer than ";
    message += std::to_string(std::numeric_limits<std::uint16_t>::max());
    message += " hops, the limit of the 16-bit hop count";
    throw std::length_error(message);
  }
}

NodeId RoutingTable::next_hop(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::next_hop: bad id");
  return field().next_hop[id];
}

std::uint16_t RoutingTable::hops_to_sink(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::hops_to_sink: bad id");
  if (field().sink_of[id] == kInvalidNode) {
    throw std::out_of_range("RoutingTable::hops_to_sink: node has no route");
  }
  return field().hops[id];
}

NodeId RoutingTable::sink_of(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::sink_of: bad id");
  return field().sink_of[id];
}

bool RoutingTable::reachable(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::reachable: bad id");
  return field().sink_of[id] != kInvalidNode;
}

std::vector<NodeId> RoutingTable::path_to_sink(NodeId id) const {
  if (!reachable(id)) {
    throw std::out_of_range("RoutingTable::path_to_sink: node has no route");
  }
  const std::vector<NodeId>& next_hop = field().next_hop;
  std::vector<NodeId> path{id};
  while (next_hop[path.back()] != kInvalidNode) {
    path.push_back(next_hop[path.back()]);
  }
  return path;
}

std::size_t RoutingTable::memory_bytes() const noexcept {
  const Topology::Field& f = field();
  return f.next_hop.capacity() * sizeof(NodeId) +
         f.hops.capacity() * sizeof(std::uint16_t) +
         f.sink_of.capacity() * sizeof(NodeId);
}

}  // namespace tempriv::net
