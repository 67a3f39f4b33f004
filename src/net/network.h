#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "crypto/payload.h"

#include "core/delay_buffer.h"
#include "core/discipline_spec.h"
#include "net/forwarding.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/inline_function.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace tempriv::net {

/// Receives every packet the moment it reaches the sink. This is the
/// interface both the legitimate application (which can decrypt) and the
/// eavesdropping adversary (which cannot) implement; they see exactly the
/// same bytes at exactly the same instants.
class SinkObserver {
 public:
  virtual ~SinkObserver() = default;
  virtual void on_delivery(const Packet& packet, sim::Time arrival) = 0;
};

/// Optional instrumentation hook: called whenever a node's buffer occupancy
/// may have changed (after every packet arrival and every transmission).
///
/// Probe hooks are sim::InlineFunction delegates, not std::function:
/// captures up to 48 bytes are stored inline (install-time and per-call heap
/// traffic is zero), and when no hook is installed the per-transmission
/// dispatch reduces to one branch on the hot path.
using OccupancyProbe =
    sim::InlineFunction<void(NodeId node, sim::Time now, std::size_t occupancy),
                        48>;

/// Optional instrumentation hook: called for every link-layer transmission,
/// at the instant the packet is handed to the link (it reaches `to` one
/// hop-tx-delay later), with a view of the packet: a copy whose cleartext
/// header is the one this hop puts on the air (prev hop `from`, the
/// sender's routing seq, the hop count so far). The view lives for the
/// call only. Useful for packet tracing and for modeling adversaries that
/// eavesdrop inside the network rather than at the sink.
using TransmitProbe = sim::InlineFunction<void(NodeId from, NodeId to,
                                               const Packet& packet,
                                               sim::Time now),
                                          48>;

struct NetworkConfig {
  /// Constant per-hop transmission delay τ (paper §5.2 uses 1 time unit;
  /// PHY/MAC details are abstracted away exactly as the paper does).
  double hop_tx_delay = 1.0;
  /// Optional MAC-contention jitter: each link traversal takes
  /// τ + U[0, hop_jitter). 0 (default) reproduces the paper's constant
  /// per-hop delay; a small positive value models CSMA backoff and is why
  /// even the paper's "no delay" case has a small nonzero adversary MSE.
  double hop_jitter = 0.0;
};

/// Gives node `id` (which is `hops_to_sink` hops from the sink) its
/// forwarding policy — per-node delay parameters (the §3.3 sink-weighted
/// decomposition) or mixed schemes.
using NodeSpecs =
    std::function<core::DisciplineSpec(NodeId id, std::uint16_t hops_to_sink)>;

/// The store-and-forward sensor network: topology + BFS routing tree +
/// a forwarding policy per non-sink node, driven by the simulation kernel.
/// The topology and its routing tree are shared through the Topology
/// handle, never copied, so many networks may run over one field at once.
/// Packets are injected at source nodes via originate() and surface at a
/// sink via SinkObserver callbacks.
///
/// Node state is sized by traffic, not by node count: each node costs one
/// u32 index into a table of 64-byte records, and a node gets a record —
/// its role, RNG stream, routing sequence counter, discipline slot and
/// the next hop's record index, in one cache line — only when it first
/// needs one. Sinks and the nodes of a per-node (NodeSpecs) configuration
/// get theirs at construction; under one spec, a forwarding node gets its
/// record on its first packet, so a 10⁶-node field whose paths cross a few
/// percent of the nodes holds records for those only. Records live in
/// fixed-size blocks and never move, and dispatch is a switch on the
/// record's role byte — no per-node heap objects and no virtual call on
/// the forwarding hot path. Every buffering node (unlimited, drop-tail,
/// RCAD) is one queue of a single network-wide DelayBuffer slab, made with
/// its record, whose memory follows the packets held rather than
/// nodes × k, and whose offer() applies the node's arrival rule. Packets
/// leave every node by its routing-tree next hop. A packet lives in one
/// free-listed PacketPool slot from originate() until it is delivered or
/// dropped, and no hop touches that slot: the slab holds its handle, and a
/// link traversal schedules a 32-byte {network, record index, node id,
/// handle, sender id, routing seq} closure (inline in the event kernel).
/// The cleartext header is a function of the origin, the last sender and
/// the seq it stamped, so the sink writes it once, at delivery, and a
/// transmit probe sees a computed view. The per-packet path is thus
/// allocation-free in steady state and copies a packet only when it leaves.
/// Once a node's next hop has a record, the sender caches its index and an
/// arrival goes straight to it, never through the per-node index.
class Network {
 public:
  /// Every routable non-sink node gets `spec`. Nodes given one spec share
  /// its delay distribution and one slab configuration. The spec is adopted
  /// on first touch: a node's record (and, for a buffering spec, its slab
  /// queue) is made when it originates or receives its first packet, so
  /// construction cost does not grow with the node count — the
  /// construction path for very large networks. Throws
  /// std::invalid_argument if the topology is missing a sink, if
  /// `config.hop_tx_delay` is not positive, or for an invalid spec (a
  /// buffering kind without a distribution or with zero capacity).
  Network(sim::Simulator& simulator, const Topology& topology,
          const core::DisciplineSpec& spec, NetworkConfig config,
          const sim::RandomStream& root_rng);

  /// Per-node policies: `specs` runs once per routable non-sink node in
  /// ascending id order. Consecutive nodes whose specs share a delay
  /// object, capacity and victim rule share a slab configuration. Throws as
  /// above.
  Network(sim::Simulator& simulator, const Topology& topology,
          const NodeSpecs& specs, NetworkConfig config,
          const sim::RandomStream& root_rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Injects a freshly-created packet at `origin` at the current simulation
  /// time. The caller seals the payload (see crypto::PayloadCodec); the
  /// network never looks inside it. Returns the packet uid.
  /// Throws std::invalid_argument if origin is a sink or unroutable.
  std::uint64_t originate(NodeId origin, crypto::SealedPayload payload);

  /// Registers a sink observer (non-owning; must outlive the run).
  void add_sink_observer(SinkObserver* observer);

  /// Installs an occupancy probe (non-owning use; the callable is moved in).
  void set_occupancy_probe(OccupancyProbe probe);

  /// Registers a transmit probe (see TransmitProbe); any number may be
  /// attached and all fire per transmission, in registration order.
  void add_transmit_probe(TransmitProbe probe);

  /// Pre-sizes the packet pool for `packets` packets held at once (buffered
  /// or on a link), so the steady state never reallocates.
  void reserve(std::size_t packets);

  const Topology& topology() const noexcept { return topology_; }
  const RoutingTable& routing() const noexcept { return routing_; }
  sim::Simulator& simulator() noexcept { return simulator_; }
  double hop_tx_delay() const noexcept { return config_.hop_tx_delay; }

  /// Per-node discipline statistics; 0 for a node no packet has reached.
  /// Throw std::out_of_range for sinks, unroutable nodes and unknown ids
  /// (those have no discipline).
  std::size_t node_buffered(NodeId id) const;
  std::uint64_t node_preemptions(NodeId id) const;
  std::uint64_t node_drops(NodeId id) const;

  /// Network-wide counters. packets_originated counts only successfully
  /// injected packets (an originate() that throws does not count).
  std::uint64_t packets_originated() const noexcept { return originated_; }
  std::uint64_t packets_delivered() const noexcept { return delivered_; }
  std::uint64_t total_preemptions() const;
  std::uint64_t total_drops() const;
  std::size_t total_buffered() const;

  /// Packets forwarding nodes have handled, by what the node does with an
  /// arrival: forward it at once or offer it to its slab queue. A packet
  /// counts once at each forwarding node it reaches, its origin included.
  struct HandledCounts {
    std::uint64_t immediate = 0;
    std::uint64_t buffered = 0;
  };
  const HandledCounts& packets_handled() const noexcept { return handled_; }

  /// Packets currently traversing a link (between transmit and arrival).
  std::size_t packets_in_flight() const noexcept { return in_flight_; }
  /// Packets the network holds: the packet pool's live slots. Every one is
  /// buffered or on a link, so this is total_buffered() +
  /// packets_in_flight() whenever no packet is being handed on.
  std::size_t packets_live() const noexcept { return pool_.live(); }

  /// Heap bytes held by the per-node index, the node-record blocks, the
  /// buffer slab and the packet pool (excludes topology and routing, which
  /// report their own).
  std::size_t memory_bytes() const noexcept;

  /// Bytes of one block of node records: records are allocated this many
  /// bytes at a time.
  static constexpr std::size_t kRecordBlockBytes = 16 * 1024;

  /// The network-wide buffer slab: one queue per buffering node that has a
  /// record, in record-creation order. For diagnostics and tests.
  const core::DelayBuffer& buffer_slab() const noexcept { return slab_; }

 private:
  /// What a packet arriving at the node meets — the switch key of the
  /// forwarding path.
  enum class NodeRole : std::uint8_t {
    kSink,       ///< delivery point; packets surface to the observers
    kImmediate,  ///< forward on arrival
    kBuffered,   ///< one slab queue; DelayBuffer::offer() applies its rule
  };

  static constexpr std::uint32_t kNoRecord = 0xffffffffu;

  /// Everything the forwarding path reads for one node, in one cache line;
  /// also the NodeContext the buffer slab sees. Records
  /// never move once made — buffer release events capture their address.
  /// A record holds the next hop's record index, not its node id: a
  /// transmit names the receiving record, so the arrival reads neither the
  /// per-node index nor the routing tree.
  class alignas(64) NodeRecord final : public NodeContext {
   public:
    NodeRecord(Network* owner, NodeId id, NodeRole node_role,
               std::uint32_t node_slot)
        : net(owner),
          stream(owner->root_rng_.split(id)),
          node(id),
          slot(node_slot),
          role(node_role) {}

    sim::Simulator& simulator() noexcept override { return net->simulator_; }
    sim::RandomStream& rng() noexcept override { return stream; }
    NodeId id() const noexcept override { return node; }
    void transmit(PacketPool::Handle packet) override {
      net->transmit_from(*this, packet);
    }

    Network* net;
    /// root.split(id), whatever order records are made in.
    sim::RandomStream stream;
    NodeId node;
    /// The routing-tree next hop's record index; kNoRecord until a transmit
    /// finds that record made (always, for sinks, which never transmit).
    std::uint32_t next_record = kNoRecord;
    std::uint32_t slot;  // slab queue id (buffered nodes)
    std::uint16_t routing_seq = 0;
    NodeRole role;
  };
  static_assert(sizeof(NodeRecord) == 64);

  static constexpr std::size_t kRecordsPerBlock =
      kRecordBlockBytes / sizeof(NodeRecord);

  /// Validates the configuration, sizes the per-node index and makes the
  /// sinks' records; the public constructors then configure the
  /// forwarding nodes.
  Network(sim::Simulator& simulator, const Topology& topology,
          NetworkConfig config, const sim::RandomStream& root_rng);
  /// Gives forwarding node `id` its record under `spec`; a buffering spec
  /// becomes a queue under slab configuration `queue_config`.
  void adopt(NodeId id, const core::DisciplineSpec& spec,
             std::uint32_t queue_config);
  /// Makes node `id`'s record (the next one in the current block).
  NodeRecord& add_record(NodeId id, NodeRole role, std::uint32_t slot);
  /// Adds a slab queue and its loss counter; returns the queue id.
  std::uint32_t add_queue(std::uint32_t queue_config);
  /// Record number `r` (a value of index_ other than kNoRecord).
  NodeRecord& at(std::uint32_t r) {
    return blocks_[r / kRecordsPerBlock][r % kRecordsPerBlock];
  }
  /// The record of a node packets have reached; makes it on first touch.
  NodeRecord& record(NodeId id) {
    const std::uint32_t r = index_[id];
    return r != kNoRecord ? at(r) : first_touch(id);
  }
  /// Makes the record of a forwarding node on its first packet, under the
  /// single spec; throws std::logic_error for an unroutable node.
  NodeRecord& first_touch(NodeId id);
  /// True if `id` forwards packets (a routable non-sink node): read from
  /// the routing tree, where exactly those nodes have a next hop.
  bool forwards(NodeId id) const {
    return id < next_hop_.size() && next_hop_[id] != kInvalidNode;
  }

  /// A packet is at `node` now: run the node's policy (switch on the role
  /// byte), then fire the occupancy probe. A packet the node drops leaves
  /// the pool here.
  void handle(NodeRecord& node, PacketPool::Handle packet);
  /// Hands `packet` to the link layer from `node`, towards its tree next
  /// hop: takes the node's routing seq, fires the transmit probes,
  /// schedules the link delay and fires the occupancy probe. Caches the
  /// next hop's record index once that record exists; never makes a
  /// record: records are made on first arrival, so mid-run only the nodes
  /// packets have reached hold state.
  void transmit_from(NodeRecord& node, PacketPool::Handle packet);

  /// A packet reaches node `id`, whose record is number `r`, or kNoRecord
  /// if the sender had none cached: then the record is looked up, or made
  /// on this first arrival. `sender` and `seq` are the hop's header fields;
  /// a sink writes the final header from them and delivers.
  void arrive_from_link(std::uint32_t r, NodeId id, PacketPool::Handle packet,
                        NodeId sender, std::uint16_t seq);
  void deliver(const Packet& packet);
  void probe(const NodeRecord& node);
  std::size_t buffered_of(const NodeRecord& node) const;
  /// Builds the probes' view of `packet` as `from` sends it with routing
  /// seq `seq`, and fires every transmit probe on it. Out of line so the
  /// common no-probe transmit path stays branch + fall through; only
  /// instrumented runs pay the copy and the dispatch loop.
  void dispatch_transmit_probes(NodeId from, NodeId to,
                                PacketPool::Handle packet, std::uint16_t seq);

  sim::Simulator& simulator_;
  // Handles on the caller's field, and its next-hop array cached for direct
  // reads.
  Topology topology_;
  RoutingTable routing_;
  std::span<const NodeId> next_hop_;
  NetworkConfig config_;
  sim::RandomStream root_rng_;  // every record's stream is split(id) of it

  // Node state: one index per node into records allocated in fixed-size
  // blocks, kNoRecord until the node needs one. Records are numbered in
  // creation order. Under a single spec, first_touch() adopts a
  // node with `touch_role_` and, if buffered, slab configuration
  // `touch_config_`.
  std::vector<std::uint32_t> index_;
  std::vector<std::vector<NodeRecord>> blocks_;  // each reserved once, full size
  NodeRole touch_role_ = NodeRole::kImmediate;
  std::uint32_t touch_config_ = 0;

  // The buffering nodes with records: one slab queue each (release events
  // capture the slab's address; Network never moves). A queue loses
  // packets in at most one way — a queue without a victim rule drops
  // arrivals, one with a rule preempts held packets — so one counter per
  // queue, indexed by queue id, serves both. The network-wide preemption
  // count is the slab's own (DelayBuffer::preempted()); losses_ serves the
  // per-node counts and the drops.
  core::DelayBuffer slab_;
  std::vector<std::uint64_t> losses_;

  std::vector<SinkObserver*> observers_;
  OccupancyProbe occupancy_probe_;
  std::vector<TransmitProbe> transmit_probes_;
  PacketPool pool_;  // every packet the network holds
  std::size_t in_flight_ = 0;
  std::uint64_t next_uid_ = 0;
  std::uint64_t originated_ = 0;
  std::uint64_t delivered_ = 0;
  HandledCounts handled_;
};

}  // namespace tempriv::net
