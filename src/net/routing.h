#pragma once

#include <span>
#include <vector>

#include "net/topology.h"

namespace tempriv::net {

/// Shortest-path routing tree toward the nearest sink (hop-count metric,
/// the metric of the MultiHop protocol the paper references), read from the
/// one tree TopologyBuilder::build() computes per field with a single
/// multi-source BFS. Deterministic: sinks seed the frontier in registration
/// order and among equal-distance parents the first-dequeued (smallest-id at
/// each level) wins, so single-sink trees are identical to the historical
/// single-source BFS.
///
/// A RoutingTable is a handle: construction is O(1) and shares the
/// topology's tree arrays, so every table over one field (the caller's, the
/// Network's) reads the same memory.
class RoutingTable {
 public:
  /// Shares the tree of `topo`. Throws std::invalid_argument if the
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
  std::size_t unreachable_count() const noexcept { return field().unreachable; }

  /// True when every node can reach a sink.
  bool fully_connected() const noexcept { return unreachable_count() == 0; }

  /// The full path from `id` to its sink, inclusive of both endpoints.
  std::vector<NodeId> path_to_sink(NodeId id) const;

  std::size_t node_count() const noexcept { return field().next_hop.size(); }

  /// next_hop() for every node, indexed by id: the shared tree array, for
  /// consumers that cache it once instead of going through the handle.
  std::span<const NodeId> next_hops() const noexcept { return field().next_hop; }

  /// Heap bytes held by the routing arrays (shared by every table over the
  /// same topology).
  std::size_t memory_bytes() const noexcept;

 private:
  const Topology::Field& field() const noexcept { return *topology_.field_; }

  Topology topology_;
};

}  // namespace tempriv::net
