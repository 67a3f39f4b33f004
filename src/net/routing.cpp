#include "net/routing.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace tempriv::net {

RoutingTable::RoutingTable(const Topology& topo) {
  if (topo.sink() == kInvalidNode) {
    throw std::invalid_argument("RoutingTable: topology has no sink");
  }
  const std::size_t n = topo.node_count();
  next_hop_.assign(n, kInvalidNode);
  hops_.assign(n, 0);
  sink_of_.assign(n, kInvalidNode);

  // Flat FIFO frontier (head index instead of pop_front): every node enters
  // at most once, so reserving n up front removes all steady-state growth.
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (NodeId sink : topo.sinks()) {
    if (sink_of_[sink] != kInvalidNode) continue;
    sink_of_[sink] = sink;
    frontier.push_back(sink);
  }
  // Topology::neighbors is CSR-backed and sorted ascending, which is exactly
  // the deterministic visit order the historical sort-per-visit BFS used.
  constexpr std::uint16_t kMaxHops = std::numeric_limits<std::uint16_t>::max();
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const NodeId current = frontier[head];
    for (NodeId nbr : topo.neighbors(current)) {
      if (sink_of_[nbr] != kInvalidNode) continue;
      if (hops_[current] == kMaxHops) {
        std::string message = "RoutingTable: a route is longer than ";
        message += std::to_string(kMaxHops);
        message += " hops, the limit of the 16-bit hop count";
        throw std::length_error(message);
      }
      sink_of_[nbr] = sink_of_[current];
      next_hop_[nbr] = current;
      hops_[nbr] = static_cast<std::uint16_t>(hops_[current] + 1);
      frontier.push_back(nbr);
    }
  }
  unreachable_ = n - frontier.size();
}

NodeId RoutingTable::next_hop(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::next_hop: bad id");
  return next_hop_[id];
}

std::uint16_t RoutingTable::hops_to_sink(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::hops_to_sink: bad id");
  if (sink_of_[id] == kInvalidNode) {
    throw std::out_of_range("RoutingTable::hops_to_sink: node has no route");
  }
  return hops_[id];
}

NodeId RoutingTable::sink_of(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::sink_of: bad id");
  return sink_of_[id];
}

bool RoutingTable::reachable(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("RoutingTable::reachable: bad id");
  return sink_of_[id] != kInvalidNode;
}

std::vector<NodeId> RoutingTable::path_to_sink(NodeId id) const {
  if (!reachable(id)) {
    throw std::out_of_range("RoutingTable::path_to_sink: node has no route");
  }
  std::vector<NodeId> path{id};
  while (next_hop_[path.back()] != kInvalidNode) {
    path.push_back(next_hop_[path.back()]);
  }
  return path;
}

std::size_t RoutingTable::memory_bytes() const noexcept {
  return next_hop_.capacity() * sizeof(NodeId) +
         hops_.capacity() * sizeof(std::uint16_t) +
         sink_of_.capacity() * sizeof(NodeId);
}

}  // namespace tempriv::net
