#include "net/network.h"

#include <optional>
#include <stdexcept>
#include <utility>

namespace tempriv::net {

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 NetworkConfig config, const sim::RandomStream& root_rng)
    : simulator_(simulator),
      topology_(topology),
      routing_(topology_),
      next_hop_(routing_.next_hops()),
      row_offsets_(topology_.row_offsets()),
      adjacency_(topology_.adjacency()),
      config_(config),
      root_rng_(root_rng) {
  if (config_.hop_tx_delay <= 0.0) {
    throw std::invalid_argument("Network: hop_tx_delay must be positive");
  }
  if (config_.hop_jitter < 0.0) {
    throw std::invalid_argument("Network: hop_jitter must be >= 0");
  }
  index_.assign(topology_.node_count(), kNoRecord);
  for (NodeId sink : topology_.sinks()) add_record(sink, NodeRole::kSink, 0);
}

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 const core::DisciplineSpec& spec, NetworkConfig config,
                 const sim::RandomStream& root_rng)
    : Network(simulator, topology, config, root_rng) {
  if (spec.kind == core::DisciplineSpec::Kind::kCustom) {
    // Factories run at construction, so a null one throws here.
    for (NodeId id = 0; id < index_.size(); ++id) {
      if (forwards(id)) adopt(id, spec, 0);
    }
    return;
  }
  // Built-in specs are adopted on first touch: one slab configuration for
  // the whole network, and a node's record and queue when a packet first
  // reaches it.
  if (spec.buffered()) {
    touch_role_ = NodeRole::kBuffered;
    touch_config_ = slab_.add_config(spec.queue_config());
  }
}

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 const NodeSpecs& specs, NetworkConfig config,
                 const sim::RandomStream& root_rng)
    : Network(simulator, topology, config, root_rng) {
  // Consecutive nodes with equal queue configs share one slab entry.
  std::optional<core::DelayBuffer::QueueConfig> last;
  std::uint32_t queue_config = 0;
  for (NodeId id = 0; id < index_.size(); ++id) {
    if (!forwards(id)) continue;
    const core::DisciplineSpec spec = specs(id, routing_.hops_to_sink(id));
    if (spec.buffered()) {
      core::DelayBuffer::QueueConfig buffer = spec.queue_config();
      if (buffer != last) {
        last = buffer;
        queue_config = slab_.add_config(std::move(buffer));
      }
    }
    adopt(id, spec, queue_config);
  }
}

Network::~Network() = default;

void Network::adopt(NodeId id, const core::DisciplineSpec& spec,
                    std::uint32_t queue_config) {
  switch (spec.kind) {
    case core::DisciplineSpec::Kind::kImmediate:
      add_record(id, NodeRole::kImmediate, 0);
      return;
    case core::DisciplineSpec::Kind::kCustom: {
      std::unique_ptr<ForwardingDiscipline> built =
          spec.factory ? spec.factory() : nullptr;
      if (!built) {
        throw std::invalid_argument("Network: custom spec built no discipline");
      }
      add_record(id, NodeRole::kCustom,
                 static_cast<std::uint32_t>(custom_.size()));
      custom_.push_back(std::move(built));
      return;
    }
    default:
      add_record(id, NodeRole::kBuffered, add_queue(queue_config));
  }
}

Network::NodeRecord& Network::add_record(NodeId id, NodeRole role,
                                         std::uint32_t slot) {
  if (blocks_.empty() || blocks_.back().size() == kRecordsPerBlock) {
    blocks_.emplace_back().reserve(kRecordsPerBlock);
  }
  std::vector<NodeRecord>& block = blocks_.back();
  index_[id] = static_cast<std::uint32_t>((blocks_.size() - 1) * kRecordsPerBlock +
                                          block.size());
  return block.emplace_back(this, id, role, slot);
}

std::uint32_t Network::add_queue(std::uint32_t queue_config) {
  losses_.push_back(0);
  return slab_.add_queue(queue_config);
}

Network::NodeRecord& Network::first_touch(NodeId id) {
  if (!forwards(id)) {
    throw std::logic_error(
        "Network: packet routed to a node with no route to the sink");
  }
  return touch_role_ == NodeRole::kBuffered
             ? add_record(id, NodeRole::kBuffered, add_queue(touch_config_))
             : add_record(id, NodeRole::kImmediate, 0);
}

const Network::NodeRecord* Network::find(NodeId id) const {
  const std::uint32_t r = index_[id];
  return r == kNoRecord ? nullptr
                        : &blocks_[r / kRecordsPerBlock][r % kRecordsPerBlock];
}

void Network::handle(NodeRecord& node, Packet&& packet) {
  switch (node.role) {
    case NodeRole::kImmediate:
      ++handled_.immediate;
      transmit_from(node, std::move(packet));
      break;
    case NodeRole::kBuffered: {
      const std::uint32_t queue = node.slot;
      ++handled_.buffered;
      if (slab_.offer(queue, std::move(packet), node) !=
          core::DelayBuffer::Admission::kAdmitted) {
        ++losses_[queue];
      }
      break;
    }
    case NodeRole::kCustom:
      ++handled_.custom;
      custom_[node.slot]->on_packet(std::move(packet), node);
      break;
    case NodeRole::kSink:
      throw std::logic_error("Network: handle() on a node with no discipline");
  }
  probe(node);
}

void Network::transmit_from(NodeRecord& node, Packet&& packet) {
  // Pick the next hop while the header still shows where the packet came
  // from (selectors use prev_hop to avoid immediate backtracking), then
  // update the cleartext header the way MultiHop does on each forward.
  const NodeId next = pick_next_hop(node, packet);
  packet.header.prev_hop = node.node;
  packet.header.hop_count =
      static_cast<std::uint16_t>(packet.header.hop_count + 1);
  packet.header.routing_seq = node.routing_seq++;
  if (!transmit_probes_.empty()) [[unlikely]] {
    dispatch_transmit_probes(node.node, next, packet);
  }
  double link_delay = config_.hop_tx_delay;
  if (config_.hop_jitter > 0.0) {
    link_delay += node.stream.uniform(0.0, config_.hop_jitter);
  }
  // Park the packet in the pool so the link-delay closure carries only a
  // 16-byte {network, handle} pair — inside the event kernel's inline
  // budget, so a warm forward never touches the heap. With the paper's
  // constant per-hop latency (jitter 0) the arrival times of successive
  // transmits never decrease, so the arrival events ride the event
  // queue's O(1) FIFO lane instead of its heap; with jitter the call
  // degrades gracefully (out-of-order times divert to the heap inside).
  const PacketPool::Handle handle = pool_.put(std::move(packet));
  simulator_.schedule_after_monotone(link_delay, [this, next, handle] {
    arrive_from_link(next, handle);
  });
  probe(node);
}

std::uint64_t Network::originate(NodeId origin, crypto::SealedPayload payload) {
  if (!forwards(origin)) {
    throw std::invalid_argument("Network::originate: bad origin node");
  }
  Packet packet;
  packet.header.origin = origin;
  packet.header.prev_hop = origin;
  packet.header.hop_count = 0;
  packet.payload = std::move(payload);
  const std::uint64_t uid = next_uid_++;
  packet.uid = uid;
  // The source's own discipline runs first: the source may buffer the packet
  // before its first transmission (the paper's Y0 term, §3.3).
  handle(record(origin), std::move(packet));
  // Counted only after the discipline accepted the packet, so a handler that
  // throws does not inflate the originated tally.
  ++originated_;
  return uid;
}

void Network::add_sink_observer(SinkObserver* observer) {
  if (observer == nullptr) {
    throw std::invalid_argument("Network::add_sink_observer: null observer");
  }
  observers_.push_back(observer);
}

void Network::set_occupancy_probe(OccupancyProbe probe) {
  occupancy_probe_ = std::move(probe);
}

void Network::add_transmit_probe(TransmitProbe probe) {
  transmit_probes_.push_back(std::move(probe));
}

void Network::set_hop_selector(HopSelector selector) {
  hop_selector_ = std::move(selector);
}

void Network::reserve(std::size_t in_flight) { pool_.reserve(in_flight); }

NodeId Network::pick_next_hop(NodeRecord& node, const Packet& packet) {
  if (!hop_selector_) return node.tree_next;
  const NodeId current = node.node;
  const NodeId next = hop_selector_(current, packet, node.stream);
  const NodeId* row = adjacency_.data();
  if (!std::binary_search(row + row_offsets_[current],
                          row + row_offsets_[current + 1], next)) {
    throw std::logic_error("Network: hop selector returned a non-neighbor");
  }
  return next;
}

void Network::dispatch_transmit_probes(NodeId from, NodeId to,
                                       const Packet& packet) {
  const sim::Time now = simulator_.now();
  for (TransmitProbe& probe : transmit_probes_) {
    probe(from, to, packet, now);
  }
}

void Network::require_discipline(NodeId id) const {
  if (!forwards(id)) {
    throw std::out_of_range("Network: node has no discipline");
  }
}

std::size_t Network::buffered_of(const NodeRecord& node) const {
  switch (node.role) {
    case NodeRole::kBuffered:
      return slab_.size(node.slot);
    case NodeRole::kCustom:
      return custom_[node.slot]->buffered();
    default:
      return 0;
  }
}

std::size_t Network::node_buffered(NodeId id) const {
  require_discipline(id);
  const NodeRecord* node = find(id);
  return node ? buffered_of(*node) : 0;
}

std::uint64_t Network::node_preemptions(NodeId id) const {
  require_discipline(id);
  const NodeRecord* node = find(id);
  if (node == nullptr) return 0;
  if (node->role == NodeRole::kBuffered) {
    return slab_.config(node->slot).victim ? losses_[node->slot] : 0;
  }
  if (node->role == NodeRole::kCustom) {
    return custom_[node->slot]->preemptions();
  }
  return 0;
}

std::uint64_t Network::node_drops(NodeId id) const {
  require_discipline(id);
  const NodeRecord* node = find(id);
  if (node == nullptr) return 0;
  if (node->role == NodeRole::kBuffered) {
    return slab_.config(node->slot).victim ? 0 : losses_[node->slot];
  }
  if (node->role == NodeRole::kCustom) return custom_[node->slot]->drops();
  return 0;
}

void Network::arrive_from_link(NodeId node, PacketPool::Handle parked) {
  NodeRecord& arrived = record(node);
  if (arrived.role == NodeRole::kSink) {
    deliver(pool_.take(parked));
    return;
  }
  handle(arrived, pool_.take(parked));
}

void Network::deliver(const Packet& packet) {
  ++delivered_;
  for (SinkObserver* observer : observers_) {
    observer->on_delivery(packet, simulator_.now());
  }
}

void Network::probe(const NodeRecord& node) {
  if (occupancy_probe_) {
    occupancy_probe_(node.node, simulator_.now(), buffered_of(node));
  }
}

std::uint64_t Network::total_preemptions() const {
  std::uint64_t total = slab_.preempted();
  for (const auto& d : custom_) total += d->preemptions();
  return total;
}

std::uint64_t Network::total_drops() const {
  std::uint64_t total = 0;
  for (std::uint32_t queue = 0; queue < losses_.size(); ++queue) {
    if (!slab_.config(queue).victim) total += losses_[queue];
  }
  for (const auto& d : custom_) total += d->drops();
  return total;
}

std::size_t Network::total_buffered() const {
  std::size_t total = slab_.size();
  for (const auto& d : custom_) total += d->buffered();
  return total;
}

std::size_t Network::memory_bytes() const noexcept {
  return index_.capacity() * sizeof(std::uint32_t) +
         blocks_.capacity() * sizeof(blocks_[0]) +
         blocks_.size() * kRecordBlockBytes +
         slab_.memory_bytes() +
         losses_.capacity() * sizeof(std::uint64_t) +
         custom_.capacity() * sizeof(custom_[0]) +
         pool_.memory_bytes();
}

}  // namespace tempriv::net
