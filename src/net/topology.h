#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"

namespace tempriv::net {

/// A built multi-branch topology plus the source node id of each branch
/// (see Topology::converging_paths / Topology::paper_figure1).
struct ConvergingPaths;

/// 2-D position of a node (used by geometric topologies and the
/// mobile-asset workload; the paper's adversary knows all positions).
struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// An undirected connectivity graph of sensor nodes, one or more designated
/// sinks and the BFS routing tree toward them. Construction helpers cover the
/// topologies used across the evaluation: lines (the paper's §3.3 path
/// model), grids (habitat monitoring), random-geometric graphs (generic
/// deployments, single- and multi-sink) and the paper's Figure-1 topology of
/// four source paths converging on a common sink.
///
/// A Topology is an immutable, cheap-to-copy handle over one built field:
/// positions, sinks, a CSR index (an (n+1)-entry offset array over one
/// packed, per-row-sorted, deduplicated neighbor array) and the routing tree
/// from the field's one BFS. Copies, RoutingTables and Networks share the
/// field instead of copying it, and any number of threads may read it.
class Topology {
 public:
  // Copy-only, so no moved-from handle is ever left null.
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

  std::size_t node_count() const noexcept { return field_->positions.size(); }

  /// Unique undirected edges.
  std::size_t edge_count() const noexcept { return field_->nbrs.size() / 2; }

  /// Neighbors of `id`, sorted ascending; valid while any copy of this
  /// handle lives. Throws std::out_of_range for unknown node ids.
  std::span<const NodeId> neighbors(NodeId id) const;

  const Position& position(NodeId id) const;

  /// O(log deg) binary search over the CSR row; false for unknown ids.
  bool has_edge(NodeId a, NodeId b) const noexcept;

  /// The CSR index itself, for consumers that cache it: row i of
  /// adjacency() spans [row_offsets()[i], row_offsets()[i + 1]).
  std::span<const std::uint32_t> row_offsets() const noexcept {
    return field_->offsets;
  }
  std::span<const NodeId> adjacency() const noexcept { return field_->nbrs; }

  /// The primary sink (first registered); kInvalidNode when none is set.
  NodeId sink() const noexcept {
    return field_->sinks.empty() ? kInvalidNode : field_->sinks.front();
  }
  std::span<const NodeId> sinks() const noexcept { return field_->sinks; }
  bool is_sink(NodeId id) const noexcept;

  /// Heap bytes held by the positions, the sinks and the CSR index. The
  /// routing tree reports through RoutingTable::memory_bytes().
  std::size_t memory_bytes() const noexcept;

  /// Line S = node0 — node1 — ... — node(n-1) = sink. Requires n >= 2.
  static Topology line(std::size_t n);

  /// width × height grid with 4-connectivity; the sink is the node at
  /// (0, 0). Node (ix, iy) has id iy*width + ix and position (ix, iy) * spacing.
  static Topology grid(std::size_t width, std::size_t height,
                       double spacing = 1.0);

  /// n nodes placed uniformly at random in [0, side]² and connected when
  /// within `radius`; nodes 0..sink_count-1 are the sinks (nearest-sink
  /// routing; sink_count 1 gives one sink, node 0). Placement draws do not
  /// depend on sink_count. Connectivity is not guaranteed; callers should
  /// check routing coverage (see routing.h). Edge discovery uses a
  /// uniform-grid spatial hash (cell side >= radius, nodes scanned cell by
  /// cell over their 3×3 neighborhood), so construction is O(n + edges)
  /// instead of O(n²); placements and the edge set are identical to the
  /// pairwise-scan reference for the same RNG state. A negative radius
  /// connects like its absolute value. Throws std::invalid_argument unless
  /// 1 <= sink_count <= n and side and radius are finite.
  static Topology random_geometric_multi_sink(std::size_t n, double side,
                                              double radius,
                                              std::size_t sink_count,
                                              sim::RandomStream& rng);

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
  friend class TopologyBuilder;
  friend class RoutingTable;

  /// std::allocator, except that a value-less construct() default-
  /// initialises: resize() leaves new integers unwritten. For arrays the
  /// builder overwrites in full right after sizing them.
  template <typename T>
  struct NoZeroFill : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = NoZeroFill<U>;
    };
    NoZeroFill() = default;
    template <typename U>
    NoZeroFill(const NoZeroFill<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  /// One built field. Never written after TopologyBuilder::build().
  struct Field {
    std::vector<Position> positions;
    std::vector<NodeId> sinks;
    // CSR adjacency: row i = nbrs[offsets[i]..offsets[i+1]). Both builders
    // write every entry of nbrs after sizing it, so sizing does not zero it.
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId, NoZeroFill<NodeId>> nbrs;
    // Shortest-path tree toward the nearest sink (see RoutingTable).
    std::vector<NodeId> next_hop;
    std::vector<std::uint16_t> hops;
    std::vector<NodeId> sink_of;  // doubles as the reachability mark
    std::size_t unreachable = 0;
    bool route_overflow = false;  // a route > 65535 hops; tree incomplete
  };

  explicit Topology(std::shared_ptr<const Field> field) noexcept
      : field_(std::move(field)) {}

  std::shared_ptr<const Field> field_;  // never null
};

/// Collects nodes, edges and sinks, then build()s the immutable Topology —
/// the only way to make one (the Topology factories use it too).
class TopologyBuilder {
 public:
  /// Adds a node at `pos`; returns its id (dense, starting at 0).
  NodeId add_node(Position pos = {});

  /// Adds an undirected edge in O(1); self-loops are ignored and duplicates
  /// are tolerated (collapsed by build()).
  /// Throws std::out_of_range for unknown node ids.
  void add_edge(NodeId a, NodeId b);

  /// Makes `id` the sole sink (replaces any previously registered sinks).
  /// Throws std::out_of_range for unknown node ids.
  void set_sink(NodeId id);
  /// Registers an additional sink (ignored if already registered). Routing
  /// over a multi-sink topology sends each node to its nearest sink.
  void add_sink(NodeId id);

  /// Pre-sizes the node array and the edge list so bulk construction never
  /// reallocates mid-loop.
  void reserve(std::size_t nodes, std::size_t edges = 0);

  std::size_t node_count() const noexcept { return positions_.size(); }

  /// Packs the edges into the CSR index, frees the edge list and builds the
  /// routing tree (one multi-source BFS). A route longer than 65535 hops is
  /// recorded, not thrown: RoutingTable throws when given such a topology.
  /// Leaves the builder empty.
  Topology build();

 private:
  friend class Topology;
  /// Like build(), but the edges join every pair of nodes within `radius`
  /// and are written straight into the CSR index by a spatial hash (see
  /// Topology::random_geometric_multi_sink); add_edge() must not have been called.
  Topology build_within_radius(double radius);

  /// Moves the positions and sinks into a new field; the builder is empty.
  std::shared_ptr<Topology::Field> take_field();
  /// The CSR index of `f` from the edge list, which is freed.
  void pack_edges(Topology::Field& f);
  /// The CSR index of `f` from its positions: an edge for every pair of
  /// nodes at most `radius` apart.
  static void connect_within_radius(Topology::Field& f, double radius);
  /// The routing tree of `f` from its CSR index and sinks.
  static void route(Topology::Field& f);

  std::vector<Position> positions_;
  std::vector<NodeId> sinks_;
  std::vector<std::pair<NodeId, NodeId>> edges_;  // dups collapse in build()
};

struct ConvergingPaths {
  Topology topology;
  std::vector<NodeId> sources;
};

}  // namespace tempriv::net
