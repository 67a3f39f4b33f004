#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"

namespace tempriv::net {

class Topology;

/// A built multi-branch topology plus the source node id of each branch
/// (see Topology::converging_paths / Topology::paper_figure1).
struct ConvergingPaths;

/// 2-D position of a node (used by geometric topologies and the
/// mobile-asset workload; the paper's adversary knows all positions).
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// An undirected connectivity graph of sensor nodes plus one or more
/// designated sinks. Construction helpers cover the topologies used across
/// the evaluation: lines (the paper's §3.3 path model), grids (habitat
/// monitoring), random-geometric graphs (generic deployments, single- and
/// multi-sink) and the paper's Figure-1 topology of four source paths
/// converging on a common sink.
///
/// Storage is CSR-only: add_edge appends to a pending edge list in O(1)
/// (duplicates and ordering are tolerated), and the next adjacency query
/// merges the pending edges into the CSR index — an (n+1)-entry offset array
/// over one packed, per-row-sorted, deduplicated neighbor array — and frees
/// the pending list. Once built, a 10⁶-node geometric graph costs its
/// positions and two flat arrays: no pair list, no per-node vectors. The
/// CSR cache is mutable state: finish mutating (or issue one query) before
/// sharing a const Topology across threads.
class Topology {
 public:
  /// Adds a node at `pos`; returns its id (dense, starting at 0).
  NodeId add_node(Position pos = {});

  /// Adds an undirected edge in O(1); self-loops are ignored and duplicates
  /// are tolerated (collapsed when the CSR index is built).
  /// Throws std::out_of_range for unknown node ids.
  void add_edge(NodeId a, NodeId b);

  /// Pre-sizes the node array and the pending edge list so bulk
  /// construction never reallocates mid-loop.
  void reserve(std::size_t nodes, std::size_t edges = 0);

  std::size_t node_count() const noexcept { return positions_.size(); }

  /// Unique undirected edges (builds the CSR index if stale).
  std::size_t edge_count() const;

  /// Neighbors of `id`, sorted ascending, valid until the next mutation.
  /// Throws std::out_of_range for unknown node ids.
  std::span<const NodeId> neighbors(NodeId id) const;

  const Position& position(NodeId id) const;

  /// O(log deg) binary search over the CSR row; false for unknown ids.
  bool has_edge(NodeId a, NodeId b) const;

  /// The primary sink (first registered); kInvalidNode when none is set.
  NodeId sink() const noexcept {
    return sinks_.empty() ? kInvalidNode : sinks_.front();
  }
  /// Makes `id` the sole sink (replaces any previously registered sinks).
  void set_sink(NodeId id);
  /// Registers an additional sink (ignored if already registered). Routing
  /// built over a multi-sink topology sends each node to its nearest sink.
  void add_sink(NodeId id);
  std::span<const NodeId> sinks() const noexcept { return sinks_; }
  bool is_sink(NodeId id) const noexcept;

  /// Heap bytes held by the positions, the sinks, the CSR index and any
  /// edges still pending (none once the index is built).
  std::size_t memory_bytes() const noexcept;

  /// Line S = node0 — node1 — ... — node(n-1) = sink. Requires n >= 2.
  static Topology line(std::size_t n);

  /// width × height grid with 4-connectivity; the sink is the node at
  /// (0, 0). Node (ix, iy) has id iy*width + ix and position (ix, iy) * spacing.
  static Topology grid(std::size_t width, std::size_t height,
                       double spacing = 1.0);

  /// n nodes placed uniformly at random in [0, side]² and connected when
  /// within `radius`. Node 0 is the sink. Connectivity is not guaranteed;
  /// callers should check routing coverage (see routing.h). Edge discovery
  /// uses a uniform-grid spatial hash (cell side >= radius, nodes scanned
  /// cell by cell over their 3×3 neighborhood), so construction is
  /// O(n + edges) instead of O(n²); placements and the edge set are
  /// identical to the pairwise-scan reference for the same RNG state.
  static Topology random_geometric(std::size_t n, double side, double radius,
                                   sim::RandomStream& rng);

  /// Like random_geometric, but nodes 0..sink_count-1 are all registered as
  /// sinks (nearest-sink routing). Node placement draws are identical to the
  /// single-sink builder for the same RNG state. Requires
  /// 1 <= sink_count <= n.
  static Topology random_geometric_multi_sink(std::size_t n, double side,
                                              double radius,
                                              std::size_t sink_count,
                                              sim::RandomStream& rng);

  /// Star: `leaves` sources all one hop from the central sink (node 0) —
  /// the maximal-aggregation case for the §4 superposition analysis.
  static Topology star(std::size_t leaves);

  /// Complete binary routing tree of the given depth; the root (node 0) is
  /// the sink, leaves are 'depth' hops away. Node count is 2^(depth+1) − 1.
  /// A natural shape for §4's "streams merge progressively" analysis.
  static Topology binary_tree(std::size_t depth);

  /// Disjoint source branches that merge into one shared trunk of
  /// `shared_tail` hops ending at the sink ("streams merge progressively as
  /// they approach the sink", §4). Branch i gives its source a total
  /// hop-count of hop_counts[i]; requires every hop_counts[i] > shared_tail.
  /// Returns the topology and the source node id for each branch.
  static ConvergingPaths converging_paths(const std::vector<std::uint16_t>& hop_counts,
                                          std::uint16_t shared_tail);

  /// The paper's Figure-1 evaluation topology: four sources with hop counts
  /// 15, 22, 9 and 11 converging on the sink (shared trunk of 3 hops).
  static ConvergingPaths paper_figure1();

 private:
  void ensure_csr() const;
  /// Spatial-hash edge discovery over the current positions (see
  /// random_geometric).
  void connect_within_radius(double radius);

  std::vector<Position> positions_;
  std::vector<NodeId> sinks_;

  // Edges added since the last CSR build; dups collapse in the CSR. Mutable
  // because the build, run from const queries, empties and frees it.
  mutable std::vector<std::pair<NodeId, NodeId>> pending_;
  // Lazily (re)built CSR adjacency: row i = nbrs_[offsets_[i]..offsets_[i+1]).
  mutable std::vector<std::uint32_t> offsets_;
  mutable std::vector<NodeId> nbrs_;
  mutable bool csr_dirty_ = true;
};

struct ConvergingPaths {
  Topology topology;
  std::vector<NodeId> sources;
};

}  // namespace tempriv::net
