#include "net/topology.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace tempriv::net {

NodeId TopologyBuilder::add_node(Position pos) {
  positions_.push_back(pos);
  return static_cast<NodeId>(positions_.size() - 1);
}

void TopologyBuilder::add_edge(NodeId a, NodeId b) {
  if (a >= node_count() || b >= node_count()) {
    throw std::out_of_range("TopologyBuilder::add_edge: unknown node id");
  }
  if (a == b) return;
  edges_.emplace_back(a, b);
}

void TopologyBuilder::set_sink(NodeId id) {
  if (id >= node_count()) throw std::out_of_range("TopologyBuilder::set_sink: bad id");
  sinks_.assign(1, id);
}

void TopologyBuilder::add_sink(NodeId id) {
  if (id >= node_count()) throw std::out_of_range("TopologyBuilder::add_sink: bad id");
  if (std::find(sinks_.begin(), sinks_.end(), id) == sinks_.end()) {
    sinks_.push_back(id);
  }
}

void TopologyBuilder::reserve(std::size_t nodes, std::size_t edges) {
  positions_.reserve(nodes);
  edges_.reserve(edges);
}

std::shared_ptr<Topology::Field> TopologyBuilder::take_field() {
  auto field = std::make_shared<Topology::Field>();
  field->positions = std::move(positions_);
  field->sinks = std::move(sinks_);
  positions_.clear();
  sinks_.clear();
  return field;
}

Topology TopologyBuilder::build() {
  std::shared_ptr<Topology::Field> field = take_field();
  pack_edges(*field);
  route(*field);
  return Topology(std::move(field));
}

Topology TopologyBuilder::build_within_radius(double radius) {
  assert(edges_.empty() && "a geometric field takes its edges from positions");
  std::shared_ptr<Topology::Field> field = take_field();
  connect_within_radius(*field, radius);
  route(*field);
  return Topology(std::move(field));
}

void TopologyBuilder::pack_edges(Topology::Field& f) {
  const std::size_t n = f.positions.size();
  // CSR: counting-sort scatter of both directions of every edge, then
  // per-row sort and dedup.
  f.offsets.assign(n + 1, 0);
  for (const auto& [a, b] : edges_) {
    assert(a < n && b < n && a != b && "edge endpoints must be dense node ids");
    ++f.offsets[a + 1];
    ++f.offsets[b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) f.offsets[i + 1] += f.offsets[i];
  f.nbrs.resize(edges_.size() * 2);
  {
    std::vector<std::uint32_t> cursor(f.offsets.begin(), f.offsets.end() - 1);
    for (const auto& [a, b] : edges_) {
      f.nbrs[cursor[a]++] = b;
      f.nbrs[cursor[b]++] = a;
    }
  }
  // The index now holds every edge: free the pair list.
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);
  // Sort each row ascending and drop duplicate edges, compacting in place.
  // The write cursor never overtakes the read cursor (dedup only shrinks),
  // and offsets[i] is rewritten only after its row has been consumed.
  std::uint32_t write = 0;
  std::uint32_t read_begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t read_end = f.offsets[i + 1];
    std::sort(f.nbrs.begin() + read_begin, f.nbrs.begin() + read_end);
    const std::uint32_t row_begin = write;
    for (std::uint32_t j = read_begin; j < read_end; ++j) {
      if (j == read_begin || f.nbrs[j] != f.nbrs[j - 1]) f.nbrs[write++] = f.nbrs[j];
    }
    f.offsets[i] = row_begin;
    read_begin = read_end;
  }
  f.offsets[n] = write;
  f.nbrs.resize(write);
}

void TopologyBuilder::route(Topology::Field& f) {
  // Routing tree: one multi-source BFS. Sinks seed a flat FIFO frontier
  // (head index instead of pop_front; every node enters at most once) in
  // registration order, and rows are sorted ascending, so among
  // equal-distance parents the first-dequeued, smallest-id one wins.
  const std::size_t n = f.positions.size();
  constexpr std::uint16_t kMaxHops = std::numeric_limits<std::uint16_t>::max();
  // Frontier entries are random node ids: fetch the offsets of the entry
  // 2·kAhead places ahead, and the row of the one kAhead ahead (whose
  // offsets the previous prefetch brought in).
  constexpr std::size_t kAhead = 4;
  f.next_hop.assign(n, kInvalidNode);
  f.hops.assign(n, 0);
  f.sink_of.assign(n, kInvalidNode);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  for (NodeId sink : f.sinks) {
    f.sink_of[sink] = sink;
    frontier.push_back(sink);
  }
  for (std::size_t head = 0; head < frontier.size() && !f.route_overflow; ++head) {
    if (head + 2 * kAhead < frontier.size()) {
      __builtin_prefetch(&f.offsets[frontier[head + 2 * kAhead]]);
    }
    if (head + kAhead < frontier.size()) {
      __builtin_prefetch(f.nbrs.data() + f.offsets[frontier[head + kAhead]]);
    }
    const NodeId current = frontier[head];
    for (std::uint32_t k = f.offsets[current]; k < f.offsets[current + 1]; ++k) {
      const NodeId nbr = f.nbrs[k];
      if (f.sink_of[nbr] != kInvalidNode) continue;
      if (f.hops[current] == kMaxHops) {
        f.route_overflow = true;
        break;
      }
      f.sink_of[nbr] = f.sink_of[current];
      f.next_hop[nbr] = current;
      f.hops[nbr] = static_cast<std::uint16_t>(f.hops[current] + 1);
      frontier.push_back(nbr);
    }
  }
  f.unreachable = n - frontier.size();
}

std::span<const NodeId> Topology::neighbors(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("Topology::neighbors: bad id");
  const Field& f = *field_;
  return {f.nbrs.data() + f.offsets[id], f.offsets[id + 1] - f.offsets[id]};
}

const Position& Topology::position(NodeId id) const {
  if (id >= node_count()) throw std::out_of_range("Topology::position: bad id");
  return field_->positions[id];
}

bool Topology::has_edge(NodeId a, NodeId b) const noexcept {
  if (a >= node_count() || b >= node_count()) return false;
  const Field& f = *field_;
  const auto begin = f.nbrs.begin() + f.offsets[a];
  const auto end = f.nbrs.begin() + f.offsets[a + 1];
  return std::binary_search(begin, end, b);
}

bool Topology::is_sink(NodeId id) const noexcept {
  return std::find(field_->sinks.begin(), field_->sinks.end(), id) !=
         field_->sinks.end();
}

std::size_t Topology::memory_bytes() const noexcept {
  const Field& f = *field_;
  return f.positions.capacity() * sizeof(Position) +
         f.sinks.capacity() * sizeof(NodeId) +
         f.offsets.capacity() * sizeof(std::uint32_t) +
         f.nbrs.capacity() * sizeof(NodeId);
}

Topology Topology::line(std::size_t n) {
  if (n < 2) throw std::invalid_argument("Topology::line: needs >= 2 nodes");
  TopologyBuilder topo;
  topo.reserve(n, n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    topo.add_node({static_cast<double>(i), 0.0});
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    topo.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  topo.set_sink(static_cast<NodeId>(n - 1));
  return topo.build();
}

Topology Topology::grid(std::size_t width, std::size_t height, double spacing) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("Topology::grid: empty dimension");
  }
  TopologyBuilder topo;
  topo.reserve(width * height, 2 * width * height);
  for (std::size_t iy = 0; iy < height; ++iy) {
    for (std::size_t ix = 0; ix < width; ++ix) {
      topo.add_node({static_cast<double>(ix) * spacing,
                     static_cast<double>(iy) * spacing});
    }
  }
  auto id = [width](std::size_t ix, std::size_t iy) {
    return static_cast<NodeId>(iy * width + ix);
  };
  for (std::size_t iy = 0; iy < height; ++iy) {
    for (std::size_t ix = 0; ix < width; ++ix) {
      if (ix + 1 < width) topo.add_edge(id(ix, iy), id(ix + 1, iy));
      if (iy + 1 < height) topo.add_edge(id(ix, iy), id(ix, iy + 1));
    }
  }
  topo.set_sink(id(0, 0));
  return topo.build();
}

void TopologyBuilder::connect_within_radius(Topology::Field& f, double radius) {
  const std::vector<Position>& positions = f.positions;
  const std::size_t n = positions.size();
  f.offsets.assign(n + 1, 0);
  if (n < 2) return;
  double min_x = positions[0].x, max_x = min_x;
  double min_y = positions[0].y, max_y = min_y;
  for (const Position& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Cell side: at least the connection radius (so candidates always sit in
  // the 3×3 neighborhood), but no smaller than extent/√n — a tiny radius
  // must not blow the grid past ~n cells.
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double floor_side =
      extent / std::ceil(std::sqrt(static_cast<double>(n)));
  const double cell = std::max({std::abs(radius), floor_side,
                                std::numeric_limits<double>::min()});
  const std::size_t cols = static_cast<std::size_t>((max_x - min_x) / cell) + 1;
  const std::size_t rows = static_cast<std::size_t>((max_y - min_y) / cell) + 1;
  auto cell_of = [&](const Position& p) {
    const std::size_t cx =
        std::min(static_cast<std::size_t>((p.x - min_x) / cell), cols - 1);
    const std::size_t cy =
        std::min(static_cast<std::size_t>((p.y - min_y) / cell), rows - 1);
    return cy * cols + cx;
  };
  // Counting-sort the nodes into their cells, and gather the positions into
  // the same cell order so the scans below read them sequentially instead of
  // chasing random node ids.
  std::vector<std::uint32_t> start(rows * cols + 1, 0);
  for (const Position& p : positions) ++start[cell_of(p) + 1];
  for (std::size_t c = 0; c + 1 < start.size(); ++c) start[c + 1] += start[c];
  std::vector<NodeId> bucket(n);
  std::vector<Position> sorted(n);
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (NodeId i = 0; i < n; ++i) {
      const std::uint32_t k = cursor[cell_of(positions[i])]++;
      bucket[k] = i;
      sorted[k] = positions[i];
    }
  }
  // Two passes, cell by cell, of each node against its 3×3 cell
  // neighborhood: the first counts every row's length, the second writes
  // the rows in place. Each pair is tested from both ends with the same
  // expression as the pairwise-scan reference; pa − pb and pb − pa square
  // to the same doubles, so both ends agree and every row is bit-identical
  // to the reference's. `sorted` is in cell order, so a node's candidates
  // are read sequentially.
  const double r2 = radius * radius;
  auto linked = [&](std::uint32_t ka, std::uint32_t kb) {
    const double dx = sorted[ka].x - sorted[kb].x;
    const double dy = sorted[ka].y - sorted[kb].y;
    return (kb != ka) & (dx * dx + dy * dy <= r2);
  };
  // A cell's neighborhood is three runs of `sorted`, one per neighborhood
  // row: the three cells of a row are adjacent in cell order. Rows past the
  // edge of the grid are empty runs.
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  using Neighborhood = std::array<Run, 3>;
  auto for_each_cell = [&](auto&& visit) {
    for (std::size_t acy = 0; acy < rows; ++acy) {
      const std::size_t cy_lo = acy == 0 ? 0 : acy - 1;
      const std::size_t cy_hi = std::min(acy + 1, rows - 1);
      for (std::size_t acx = 0; acx < cols; ++acx) {
        const std::size_t cx_lo = acx == 0 ? 0 : acx - 1;
        const std::size_t cx_hi = std::min(acx + 1, cols - 1);
        Neighborhood hood{};
        for (std::size_t cy = cy_lo; cy <= cy_hi; ++cy) {
          hood[cy - cy_lo] = {start[cy * cols + cx_lo], start[cy * cols + cx_hi + 1]};
        }
        const std::size_t ac = acy * cols + acx;
        visit(start[ac], start[ac + 1], hood);
      }
    }
  };
  // Pass 1: degrees into offsets[id + 1], then their prefix sum. The
  // largest neighborhood sizes pass 2's one scratch row.
  std::size_t widest = 0;
  for_each_cell([&](std::uint32_t first, std::uint32_t last, const Neighborhood& hood) {
    std::size_t candidates = 0;
    for (const Run& run : hood) candidates += run.end - run.begin;
    widest = std::max(widest, candidates);
    for (std::uint32_t ka = first; ka < last; ++ka) {
      std::uint32_t degree = 0;
      for (const Run& run : hood) {
        for (std::uint32_t kb = run.begin; kb < run.end; ++kb) degree += linked(ka, kb);
      }
      f.offsets[bucket[ka] + 1] = degree;
    }
  });
  for (std::size_t i = 0; i < n; ++i) f.offsets[i + 1] += f.offsets[i];
  // Pass 2: gather each row without branching (every candidate is written,
  // the cursor advances only past neighbors), sort it, and store it at its
  // node's offset. Rows are visited in cell order, so their slots are
  // scattered across the index: read the slots in cell order (one gather
  // up front) and prefetch the slot of the node kAhead places on.
  constexpr std::uint32_t kAhead = 8;
  std::vector<std::uint32_t> slot(n);
  for (std::uint32_t k = 0; k < n; ++k) slot[k] = f.offsets[bucket[k]];
  f.nbrs.resize(f.offsets[n]);
  std::vector<NodeId> row(widest);
  for_each_cell([&](std::uint32_t first, std::uint32_t last, const Neighborhood& hood) {
    for (std::uint32_t ka = first; ka < last; ++ka) {
      if (ka + kAhead < n) __builtin_prefetch(f.nbrs.data() + slot[ka + kAhead], 1);
      std::size_t degree = 0;
      for (const Run& run : hood) {
        for (std::uint32_t kb = run.begin; kb < run.end; ++kb) {
          row[degree] = bucket[kb];
          degree += linked(ka, kb);
        }
      }
      assert(slot[ka] + degree == f.offsets[bucket[ka] + 1]);
      std::sort(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(degree));
      std::copy_n(row.begin(), degree, f.nbrs.begin() + slot[ka]);
    }
  });
}

Topology Topology::random_geometric(std::size_t n, double side, double radius,
                                    sim::RandomStream& rng) {
  if (n == 0) throw std::invalid_argument("Topology::random_geometric: n == 0");
  return random_geometric_multi_sink(n, side, radius, 1, rng);
}

Topology Topology::random_geometric_multi_sink(std::size_t n, double side,
                                               double radius,
                                               std::size_t sink_count,
                                               sim::RandomStream& rng) {
  if (sink_count == 0 || sink_count > n) {
    throw std::invalid_argument(
        "Topology::random_geometric_multi_sink: need 1 <= sink_count <= n");
  }
  // The grid hash sizes its cells from both; a NaN would reach an integer
  // conversion.
  if (!std::isfinite(side) || !std::isfinite(radius)) {
    throw std::invalid_argument(
        "Topology::random_geometric: side and radius must be finite");
  }
  TopologyBuilder topo;
  topo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    topo.add_node({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  topo.set_sink(0);
  for (std::size_t s = 1; s < sink_count; ++s) {
    topo.add_sink(static_cast<NodeId>(s));
  }
  return topo.build_within_radius(radius);
}

Topology Topology::star(std::size_t leaves) {
  if (leaves == 0) throw std::invalid_argument("Topology::star: no leaves");
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

Topology Topology::binary_tree(std::size_t depth) {
  TopologyBuilder topo;
  const std::size_t nodes = (std::size_t{1} << (depth + 1)) - 1;
  topo.reserve(nodes, nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    // Position by level for plotting: x = index within level, y = level.
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

ConvergingPaths Topology::converging_paths(
    const std::vector<std::uint16_t>& hop_counts, std::uint16_t shared_tail) {
  if (hop_counts.empty()) {
    throw std::invalid_argument("converging_paths: no branches");
  }
  for (std::uint16_t h : hop_counts) {
    if (h <= shared_tail) {
      throw std::invalid_argument(
          "converging_paths: each hop count must exceed the shared tail");
    }
  }
  TopologyBuilder topo;
  std::vector<NodeId> sources;

  // Shared trunk: junction -> t1 -> ... -> sink, i.e. shared_tail hops from
  // the junction to the sink. With shared_tail == 0 branches join the sink
  // directly.
  const NodeId sink = topo.add_node({0.0, 0.0});
  topo.set_sink(sink);
  NodeId junction = sink;
  for (std::uint16_t t = 1; t <= shared_tail; ++t) {
    const NodeId next = topo.add_node({static_cast<double>(t), 0.0});
    topo.add_edge(junction, next);
    junction = next;
  }

  // Each branch contributes (h - shared_tail) hops from its source to the
  // junction, fanning out at distinct angles for plotting-friendly layout.
  for (std::size_t b = 0; b < hop_counts.size(); ++b) {
    const std::uint16_t branch_hops = hop_counts[b] - shared_tail;
    const double angle =
        3.14159265358979323846 * (static_cast<double>(b) + 1.0) /
        (static_cast<double>(hop_counts.size()) + 1.0);
    NodeId prev = junction;
    for (std::uint16_t s = 1; s <= branch_hops; ++s) {
      const double r = static_cast<double>(shared_tail + s);
      const NodeId next =
          topo.add_node({r * std::cos(angle), r * std::sin(angle)});
      topo.add_edge(prev, next);
      prev = next;
    }
    sources.push_back(prev);
  }
  return {topo.build(), std::move(sources)};
}

ConvergingPaths Topology::paper_figure1() {
  // Figure 1: flows S1..S4 with hop counts 15, 22, 9, 11; the drawing shows
  // the paths meeting shortly before the sink, which we model as a 3-hop
  // shared trunk.
  return converging_paths({15, 22, 9, 11}, 3);
}

}  // namespace tempriv::net
