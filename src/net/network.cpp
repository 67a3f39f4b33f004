#include "net/network.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/probes.h"

namespace tempriv::net {

namespace {

/// The per-scheme net.forward.* counter for a packet reaching a slab queue.
[[maybe_unused]] telemetry::Counter forward_counter(
    const core::DelayBuffer::QueueConfig& config) noexcept {
  if (config.victim) return telemetry::Counter::kNetForwardRcad;
  return config.capacity == core::DelayBuffer::kUnbounded
             ? telemetry::Counter::kNetForwardUnlimited
             : telemetry::Counter::kNetForwardDropTail;
}

}  // namespace

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 NetworkConfig config, const sim::RandomStream& root_rng)
    : simulator_(simulator),
      topology_(topology),
      routing_(topology_),
      next_hop_(routing_.next_hops()),
      row_offsets_(topology_.row_offsets()),
      adjacency_(topology_.adjacency()),
      config_(config) {
  if (config_.hop_tx_delay <= 0.0) {
    throw std::invalid_argument("Network: hop_tx_delay must be positive");
  }
  if (config_.hop_jitter < 0.0) {
    throw std::invalid_argument("Network: hop_jitter must be >= 0");
  }
  const std::size_t n = topology_.node_count();
  role_.assign(n, NodeRole::kUnroutable);
  disc_slot_.assign(n, 0);
  routing_seq_.assign(n, 0);
  // Every node gets its private stream, split(id) from the root exactly as
  // the per-object shells did (split is a pure function of root + id, so
  // draw sequences are unchanged; sink/unroutable streams are simply idle).
  rng_.reserve(n);
  for (NodeId id = 0; id < n; ++id) rng_.push_back(root_rng.split(id));
  ctx_.reserve(n);
  for (NodeId id = 0; id < n; ++id) ctx_.emplace_back(this, id);
  for (NodeId sink : topology_.sinks()) role_[sink] = NodeRole::kSink;
}

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 const core::DisciplineSpec& spec, NetworkConfig config,
                 const sim::RandomStream& root_rng)
    : Network(simulator, topology, config, root_rng) {
  std::uint32_t queue_config = 0;
  if (spec.buffered()) {
    // One slab configuration for the whole network; every forwarding node
    // is an empty queue head until packets reach it.
    queue_config = slab_.add_config(spec.queue_config());
    std::size_t forwarding = 0;
    for (NodeId id = 0; id < role_.size(); ++id) forwarding += forwards(id);
    slab_.reserve_queues(forwarding);
    losses_.reserve(forwarding);
  }
  for (NodeId id = 0; id < role_.size(); ++id) {
    if (forwards(id)) adopt(id, spec, queue_config);
  }
}

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 const NodeSpecs& specs, NetworkConfig config,
                 const sim::RandomStream& root_rng)
    : Network(simulator, topology, config, root_rng) {
  // Consecutive nodes with equal queue configs share one slab entry.
  std::optional<core::DelayBuffer::QueueConfig> last;
  std::uint32_t queue_config = 0;
  for (NodeId id = 0; id < role_.size(); ++id) {
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
      role_[id] = NodeRole::kImmediate;
      return;
    case core::DisciplineSpec::Kind::kCustom: {
      std::unique_ptr<ForwardingDiscipline> built =
          spec.factory ? spec.factory() : nullptr;
      if (!built) {
        throw std::invalid_argument("Network: custom spec built no discipline");
      }
      role_[id] = NodeRole::kCustom;
      disc_slot_[id] = static_cast<std::uint32_t>(custom_.size());
      custom_.push_back(std::move(built));
      return;
    }
    default:
      role_[id] = NodeRole::kBuffered;
      disc_slot_[id] = slab_.add_queue(queue_config);
      losses_.push_back(0);
  }
}

void Network::handle(NodeId node, Packet&& packet) {
  switch (role_[node]) {
    case NodeRole::kImmediate:
      TEMPRIV_TLM_COUNT(kNetForwardImmediate);
      transmit_from(node, std::move(packet));
      break;
    case NodeRole::kBuffered: {
      const std::uint32_t queue = disc_slot_[node];
      TEMPRIV_TLM_COUNT_AT(forward_counter(slab_.config(queue)));
      if (slab_.offer(queue, std::move(packet), ctx_[node]) !=
          core::DelayBuffer::Admission::kAdmitted) {
        ++losses_[queue];
      }
      break;
    }
    case NodeRole::kCustom:
      TEMPRIV_TLM_COUNT(kNetForwardCustom);
      custom_[disc_slot_[node]]->on_packet(std::move(packet), ctx_[node]);
      break;
    case NodeRole::kSink:
    case NodeRole::kUnroutable:
      throw std::logic_error("Network: handle() on a node with no discipline");
  }
  probe(node);
}

void Network::transmit_from(NodeId node, Packet&& packet) {
  // Pick the next hop while the header still shows where the packet came
  // from (selectors use prev_hop to avoid immediate backtracking), then
  // update the cleartext header the way MultiHop does on each forward.
  sim::RandomStream& rng = rng_[node];
  const NodeId next = pick_next_hop(node, packet, rng);
  packet.header.prev_hop = node;
  packet.header.hop_count =
      static_cast<std::uint16_t>(packet.header.hop_count + 1);
  packet.header.routing_seq = routing_seq_[node]++;
  if (!transmit_probes_.empty()) [[unlikely]] {
    dispatch_transmit_probes(node, next, packet);
  }
  double link_delay = config_.hop_tx_delay;
  if (config_.hop_jitter > 0.0) {
    link_delay += rng.uniform(0.0, config_.hop_jitter);
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
  if (origin >= role_.size() || role_[origin] == NodeRole::kSink ||
      role_[origin] == NodeRole::kUnroutable) {
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
  handle(origin, std::move(packet));
  // Counted only after the discipline accepted the packet, so a handler that
  // throws does not inflate the originated tally.
  ++originated_;
  return uid;
}

std::uint64_t Network::originate_batch(
    NodeId origin, const crypto::PayloadCodec& codec,
    std::span<const crypto::SensorPayload> payloads) {
  if (origin >= role_.size() || role_[origin] == NodeRole::kSink ||
      role_[origin] == NodeRole::kUnroutable) {
    throw std::invalid_argument("Network::originate_batch: bad origin node");
  }
  const std::uint64_t first_uid = next_uid_;
  // Seal lane-group by lane-group into stack scratch: one key-schedule pass
  // per group, no heap, and a burst of any size stays a flat loop.
  constexpr std::size_t kGroup = crypto::PayloadCodec::kBatchLanes;
  crypto::SealedPayload sealed[kGroup];
  for (std::size_t i = 0; i < payloads.size(); i += kGroup) {
    const std::size_t n = std::min(kGroup, payloads.size() - i);
    TEMPRIV_TLM_HIST(kNetBatchLaneFill, n);
    codec.seal_batch(payloads.subspan(i, n), origin, {sealed, n});
    for (std::size_t j = 0; j < n; ++j) {
      Packet packet;
      packet.header.origin = origin;
      packet.header.prev_hop = origin;
      packet.header.hop_count = 0;
      packet.payload = sealed[j];
      packet.uid = next_uid_++;
      handle(origin, std::move(packet));
      ++originated_;
    }
  }
  return first_uid;
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

NodeId Network::pick_next_hop(NodeId current, const Packet& packet,
                              sim::RandomStream& rng) {
  if (!hop_selector_) return next_hop_[current];
  const NodeId next = hop_selector_(current, packet, rng);
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
  if (id >= role_.size() || role_[id] == NodeRole::kSink ||
      role_[id] == NodeRole::kUnroutable) {
    throw std::out_of_range("Network: node has no discipline");
  }
}

std::size_t Network::buffered_of(NodeId node) const {
  switch (role_[node]) {
    case NodeRole::kBuffered:
      return slab_.size(disc_slot_[node]);
    case NodeRole::kCustom:
      return custom_[disc_slot_[node]]->buffered();
    default:
      return 0;
  }
}

std::size_t Network::node_buffered(NodeId id) const {
  require_discipline(id);
  return buffered_of(id);
}

std::uint64_t Network::node_preemptions(NodeId id) const {
  require_discipline(id);
  if (role_[id] == NodeRole::kBuffered) {
    const std::uint32_t queue = disc_slot_[id];
    return slab_.config(queue).victim ? losses_[queue] : 0;
  }
  if (role_[id] == NodeRole::kCustom) {
    return custom_[disc_slot_[id]]->preemptions();
  }
  return 0;
}

std::uint64_t Network::node_drops(NodeId id) const {
  require_discipline(id);
  if (role_[id] == NodeRole::kBuffered) {
    const std::uint32_t queue = disc_slot_[id];
    return slab_.config(queue).victim ? 0 : losses_[queue];
  }
  if (role_[id] == NodeRole::kCustom) return custom_[disc_slot_[id]]->drops();
  return 0;
}

void Network::arrive(NodeId node, Packet&& packet) {
  if (role_[node] == NodeRole::kSink) {
    deliver(packet);
    return;
  }
  if (role_[node] == NodeRole::kUnroutable) {
    throw std::logic_error(
        "Network: packet routed to a node with no route to the sink");
  }
  handle(node, std::move(packet));
}

void Network::arrive_from_link(NodeId node, PacketPool::Handle handle) {
  arrive(node, pool_.take(handle));
}

void Network::deliver(const Packet& packet) {
  ++delivered_;
  for (SinkObserver* observer : observers_) {
    observer->on_delivery(packet, simulator_.now());
  }
}

void Network::probe(NodeId node) {
  if (occupancy_probe_) {
    occupancy_probe_(node, simulator_.now(), buffered_of(node));
  }
}

std::uint64_t Network::total_losses(bool preemptive) const {
  std::uint64_t total = 0;
  for (std::uint32_t queue = 0; queue < losses_.size(); ++queue) {
    if (slab_.config(queue).victim.has_value() == preemptive) {
      total += losses_[queue];
    }
  }
  return total;
}

std::uint64_t Network::total_preemptions() const {
  std::uint64_t total = total_losses(true);
  for (const auto& d : custom_) total += d->preemptions();
  return total;
}

std::uint64_t Network::total_drops() const {
  std::uint64_t total = total_losses(false);
  for (const auto& d : custom_) total += d->drops();
  return total;
}

std::size_t Network::total_buffered() const {
  std::size_t total = slab_.size();
  for (const auto& d : custom_) total += d->buffered();
  return total;
}

std::size_t Network::memory_bytes() const noexcept {
  return role_.capacity() * sizeof(NodeRole) +
         disc_slot_.capacity() * sizeof(std::uint32_t) +
         routing_seq_.capacity() * sizeof(std::uint16_t) +
         rng_.capacity() * sizeof(sim::RandomStream) +
         ctx_.capacity() * sizeof(NodeCtx) +
         slab_.memory_bytes() +
         losses_.capacity() * sizeof(std::uint64_t) +
         custom_.capacity() * sizeof(custom_[0]) +
         pool_.memory_bytes();
}

}  // namespace tempriv::net
