#pragma once

#include <vector>

#include "net/topology.h"

namespace tempriv::net {

/// Shortest-path routing tree toward the nearest sink, built with a single
/// multi-source breadth-first search (hop-count metric, the metric of the
/// MultiHop protocol the paper references). Deterministic: sinks seed the
/// frontier in registration order and among equal-distance parents the
/// first-dequeued (smallest-id at each level) wins, so single-sink trees
/// are identical to the historical single-source BFS.
///
/// Construction is allocation-linear: four flat arrays sized once plus a
/// reserved vector frontier — no per-visit neighbor copies, no deque
/// chunks — so building the tree for a 10⁶-node topology performs a
/// constant number of heap allocations.
class RoutingTable {
 public:
  /// Builds the tree for `topo`. Throws std::invalid_argument if the
  /// topology has no sink set, and std::length_error if some node is more
  /// than 65535 hops from its sink (hop counts are 16-bit).
  explicit RoutingTable(const Topology& topo);

  /// Next hop of `id` toward its nearest sink; kInvalidNode for sinks and
  /// for nodes with no route.
  NodeId next_hop(NodeId id) const;

  /// Hop distance from `id` to its nearest sink; 0 for sinks. Throws
  /// std::out_of_range for unroutable nodes (check reachable() first).
  std::uint16_t hops_to_sink(NodeId id) const;

  /// The sink `id` routes to; kInvalidNode for unroutable nodes. For sinks,
  /// the sink itself.
  NodeId sink_of(NodeId id) const;

  bool reachable(NodeId id) const;

  /// Nodes with no route to any sink (coverage diagnostic for disconnected
  /// random-geometric deployments).
  std::size_t unreachable_count() const noexcept { return unreachable_; }

  /// True when every node can reach a sink.
  bool fully_connected() const noexcept { return unreachable_ == 0; }

  /// The full path from `id` to its sink, inclusive of both endpoints.
  std::vector<NodeId> path_to_sink(NodeId id) const;

  std::size_t node_count() const noexcept { return next_hop_.size(); }

  /// Heap bytes held by the routing arrays.
  std::size_t memory_bytes() const noexcept;

 private:
  std::vector<NodeId> next_hop_;
  std::vector<std::uint16_t> hops_;
  std::vector<NodeId> sink_of_;  // doubles as the reachability mark
  std::size_t unreachable_ = 0;
};

}  // namespace tempriv::net
