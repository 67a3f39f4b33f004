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
  // The spec is adopted on first touch: one slab configuration for the
  // whole network, and a node's record and queue when a packet first
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
  if (spec.buffered()) {
    add_record(id, NodeRole::kBuffered, add_queue(queue_config));
  } else {
    add_record(id, NodeRole::kImmediate, 0);
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

void Network::handle(NodeRecord& node, PacketPool::Handle packet) {
  switch (node.role) {
    case NodeRole::kImmediate:
      ++handled_.immediate;
      transmit_from(node, packet);
      break;
    case NodeRole::kBuffered: {
      const std::uint32_t queue = node.slot;
      ++handled_.buffered;
      const core::DelayBuffer::Admission outcome =
          slab_.offer(queue, packet, node);
      if (outcome == core::DelayBuffer::Admission::kDropped) {
        (void)pool_.take(packet);
      }
      if (outcome != core::DelayBuffer::Admission::kAdmitted) {
        ++losses_[queue];
      }
      break;
    }
    case NodeRole::kSink:
      throw std::logic_error("Network: handle() on a node with no discipline");
  }
  probe(node);
}

void Network::transmit_from(NodeRecord& node, PacketPool::Handle packet) {
  // The next hop's record, cached the first time a transmit finds it made;
  // until then the arrival looks it up by node id (and makes it, if this
  // packet is the first to reach it).
  std::uint32_t next_record = node.next_record;
  NodeId next = kInvalidNode;
  if (next_record == kNoRecord) [[unlikely]] {
    next = next_hop_[node.node];
    next_record = index_[next];
    node.next_record = next_record;
  }
  // Update the cleartext header the way MultiHop does on each forward, in
  // the packet's pool slot.
  Packet& sent = pool_.at(packet);
  sent.header.prev_hop = node.node;
  sent.header.hop_count = static_cast<std::uint16_t>(sent.header.hop_count + 1);
  sent.header.routing_seq = node.routing_seq++;
  if (!transmit_probes_.empty()) [[unlikely]] {
    dispatch_transmit_probes(node.node, next_hop_[node.node], sent);
  }
  double link_delay = config_.hop_tx_delay;
  if (config_.hop_jitter > 0.0) {
    link_delay += node.stream.uniform(0.0, config_.hop_jitter);
  }
  // The link-delay closure carries only {network, record index, node id,
  // handle}, 24 bytes — inside the event kernel's inline budget, so a warm
  // forward never touches the heap. With the paper's constant per-hop
  // latency (jitter 0) the arrival times of successive transmits never
  // decrease, so the arrival events ride the event queue's O(1) FIFO lane
  // instead of its heap; with jitter the call degrades gracefully
  // (out-of-order times divert to the heap inside).
  simulator_.schedule_after_monotone(link_delay,
                                     [this, next_record, next, packet] {
                                       arrive_from_link(next_record, next,
                                                        packet);
                                     });
  ++in_flight_;
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
  handle(record(origin), pool_.put(std::move(packet)));
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

void Network::reserve(std::size_t packets) { pool_.reserve(packets); }

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
  return node.role == NodeRole::kBuffered ? slab_.size(node.slot) : 0;
}

std::size_t Network::node_buffered(NodeId id) const {
  require_discipline(id);
  const NodeRecord* node = find(id);
  return node ? buffered_of(*node) : 0;
}

std::uint64_t Network::node_preemptions(NodeId id) const {
  require_discipline(id);
  const NodeRecord* node = find(id);
  if (node == nullptr || node->role != NodeRole::kBuffered) return 0;
  return slab_.config(node->slot).victim ? losses_[node->slot] : 0;
}

std::uint64_t Network::node_drops(NodeId id) const {
  require_discipline(id);
  const NodeRecord* node = find(id);
  if (node == nullptr || node->role != NodeRole::kBuffered) return 0;
  return slab_.config(node->slot).victim ? 0 : losses_[node->slot];
}

void Network::arrive_from_link(std::uint32_t r, NodeId id,
                               PacketPool::Handle packet) {
  --in_flight_;
  NodeRecord& arrived = r != kNoRecord ? at(r) : record(id);
  if (arrived.role == NodeRole::kSink) {
    deliver(pool_.take(packet));
    return;
  }
  handle(arrived, packet);
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
  return slab_.preempted();
}

std::uint64_t Network::total_drops() const {
  std::uint64_t total = 0;
  for (std::uint32_t queue = 0; queue < losses_.size(); ++queue) {
    if (!slab_.config(queue).victim) total += losses_[queue];
  }
  return total;
}

std::size_t Network::total_buffered() const { return slab_.size(); }

std::size_t Network::memory_bytes() const noexcept {
  return index_.capacity() * sizeof(std::uint32_t) +
         blocks_.capacity() * sizeof(blocks_[0]) +
         blocks_.size() * kRecordBlockBytes +
         slab_.memory_bytes() +
         losses_.capacity() * sizeof(std::uint64_t) +
         pool_.memory_bytes();
}

}  // namespace tempriv::net
