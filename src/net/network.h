#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
/// Probe and selector hooks are sim::InlineFunction delegates, not
/// std::function: captures up to 48 bytes are stored inline (install-time
/// and per-call heap traffic is zero), and when no hook is installed the
/// per-transmission dispatch reduces to one branch on the hot path.
using OccupancyProbe =
    sim::InlineFunction<void(NodeId node, sim::Time now, std::size_t occupancy),
                        48>;

/// Optional instrumentation hook: called for every link-layer transmission,
/// with the updated cleartext header, at the instant the packet is handed
/// to the link (it reaches `to` one hop-tx-delay later). Useful for packet
/// tracing and for modeling adversaries that eavesdrop inside the network
/// rather than at the sink.
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

/// Per-transmission next-hop choice. The default is the BFS routing tree;
/// installing a custom selector enables routing-level privacy schemes such
/// as phantom routing (random walk before tree routing, the paper's cited
/// prior work on source-location privacy). Must return a neighbor of
/// `current` in the topology.
using HopSelector = sim::InlineFunction<NodeId(NodeId current,
                                               const Packet& packet,
                                               sim::RandomStream& rng),
                                        48>;

/// Gives node `id` (which is `hops_to_sink` hops from the sink) its
/// forwarding policy — per-node delay parameters (the §3.3 sink-weighted
/// decomposition), mixed schemes, or custom disciplines.
using NodeSpecs =
    std::function<core::DisciplineSpec(NodeId id, std::uint16_t hops_to_sink)>;

/// The store-and-forward sensor network: topology + BFS routing tree +
/// a forwarding policy per non-sink node, driven by the simulation kernel.
/// Packets are injected at source nodes via originate() and surface at a
/// sink via SinkObserver callbacks.
///
/// Node state is structure-of-arrays indexed by dense NodeId: per-node role,
/// RNG stream, routing sequence counter and discipline slot live in parallel
/// flat vectors, built from core::DisciplineSpec descriptions and
/// dispatched by a switch on the role byte — no per-node heap objects and
/// no virtual call on the forwarding hot path. Every buffering node
/// (unlimited, drop-tail, RCAD) is one queue of a single network-wide
/// DelayBuffer slab, whose memory follows the packets held rather than
/// nodes × k, and whose offer() applies the node's arrival rule. Only
/// DisciplineSpec::custom nodes keep objects and virtual dispatch. The
/// per-packet path is allocation-free in steady state: packets are flat
/// PODs, and link traversals park them in a free-listed PacketPool and
/// schedule a 16-byte {network, handle} closure (inline in the event
/// kernel).
class Network {
 public:
  /// Every routable non-sink node gets `spec`. Nodes given one spec share
  /// its delay distribution and one slab configuration, so per-node cost
  /// is flat-array slots only — the construction path for very large
  /// networks. Throws std::invalid_argument if the topology is missing a
  /// sink, if `config.hop_tx_delay` is not positive, or for an invalid
  /// spec (a buffering kind without a distribution or with zero capacity,
  /// a custom kind without a factory).
  Network(sim::Simulator& simulator, Topology topology,
          const core::DisciplineSpec& spec, NetworkConfig config,
          const sim::RandomStream& root_rng);

  /// Per-node policies: `specs` runs once per routable non-sink node in
  /// ascending id order (a kCustom spec's factory runs right after it).
  /// Consecutive nodes whose specs share a delay object, capacity and
  /// victim rule share a slab configuration. Throws as above.
  Network(sim::Simulator& simulator, Topology topology, const NodeSpecs& specs,
          NetworkConfig config, const sim::RandomStream& root_rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  /// Injects a freshly-created packet at `origin` at the current simulation
  /// time. The caller seals the payload (see crypto::PayloadCodec); the
  /// network never looks inside it. Returns the packet uid.
  /// Throws std::invalid_argument if origin is a sink or unroutable.
  std::uint64_t originate(NodeId origin, crypto::SealedPayload payload);

  /// Injects a burst of same-origin packets created at the current instant,
  /// sealing them in batched groups: each group of PayloadCodec::kBatchLanes
  /// payloads shares one pass through the codec's key schedules
  /// (PayloadCodec::seal_batch), and origin validation happens once for the
  /// whole burst. Packets are handed to the origin's discipline in payload
  /// order, exactly as repeated originate() calls would, with consecutive
  /// uids starting at the returned value. Sealed bytes are bit-identical to
  /// the one-packet path. Returns the first packet's uid (or the value the
  /// next originate() will return if `payloads` is empty).
  std::uint64_t originate_batch(NodeId origin,
                                const crypto::PayloadCodec& codec,
                                std::span<const crypto::SensorPayload> payloads);

  /// Registers a sink observer (non-owning; must outlive the run).
  void add_sink_observer(SinkObserver* observer);

  /// Installs an occupancy probe (non-owning use; the callable is moved in).
  void set_occupancy_probe(OccupancyProbe probe);

  /// Registers a transmit probe (see TransmitProbe); any number may be
  /// attached and all fire per transmission, in registration order.
  void add_transmit_probe(TransmitProbe probe);

  /// Replaces tree routing with a custom per-transmission hop selector
  /// (see HopSelector). The returned node must be a topology neighbor of
  /// the transmitting node or the transmission throws std::logic_error.
  void set_hop_selector(HopSelector selector);

  /// Pre-sizes the in-flight packet pool for `in_flight` packets
  /// simultaneously traversing links, so the steady state never reallocates.
  void reserve(std::size_t in_flight);

  const Topology& topology() const noexcept { return topology_; }
  const RoutingTable& routing() const noexcept { return routing_; }
  sim::Simulator& simulator() noexcept { return simulator_; }
  double hop_tx_delay() const noexcept { return config_.hop_tx_delay; }

  /// Per-node discipline statistics. Throw std::out_of_range for sinks,
  /// unroutable nodes and unknown ids (those have no discipline).
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

  /// Packets currently traversing a link (in the pool between transmit and
  /// arrival).
  std::size_t packets_in_flight() const noexcept { return pool_.in_flight(); }

  /// Heap bytes held by the per-node arrays, the buffer slab and the
  /// in-flight pool (excludes topology and routing, which report their own).
  std::size_t memory_bytes() const noexcept;

  /// The network-wide buffer slab: one queue per buffering node (custom
  /// disciplines keep their own buffers). For diagnostics and tests.
  const core::DelayBuffer& buffer_slab() const noexcept { return slab_; }

 private:
  /// What a packet arriving at the node meets — the switch key of the
  /// virtual-free hot path.
  enum class NodeRole : std::uint8_t {
    kSink,        ///< delivery point; packets surface to the observers
    kUnroutable,  ///< no path to any sink; arrivals are a logic error
    kImmediate,   ///< forward on arrival
    kBuffered,    ///< one slab queue; DelayBuffer::offer() applies its rule
    kCustom,      ///< discipline object kept; virtual on_packet dispatch
  };

  /// The NodeContext the disciplines and the buffer slab see. One per node
  /// in a flat vector sized at construction and never resized afterwards —
  /// buffer release events capture the context address.
  class NodeCtx final : public NodeContext {
   public:
    NodeCtx() = default;
    NodeCtx(Network* net, NodeId id, std::uint16_t hops)
        : net_(net), id_(id), hops_(hops) {}

    sim::Simulator& simulator() noexcept override { return net_->simulator_; }
    sim::RandomStream& rng() noexcept override { return net_->rng_[id_]; }
    NodeId id() const noexcept override { return id_; }
    std::uint16_t hops_to_sink() const noexcept override { return hops_; }
    void transmit(Packet&& packet) override {
      net_->transmit_from(id_, std::move(packet));
    }

   private:
    Network* net_ = nullptr;
    NodeId id_ = kInvalidNode;
    std::uint16_t hops_ = 0;
  };

  /// Validates the configuration and sizes every per-node array (roles,
  /// RNG streams, contexts, counters); the public constructors then give
  /// each routable non-sink node its spec.
  Network(sim::Simulator& simulator, Topology topology, NetworkConfig config,
          const sim::RandomStream& root_rng);
  /// Gives forwarding node `id` its spec; a buffering spec becomes a queue
  /// under slab configuration `queue_config`.
  void adopt(NodeId id, const core::DisciplineSpec& spec,
             std::uint32_t queue_config);
  /// True if `id` forwards packets (a routable non-sink node).
  bool forwards(NodeId id) const {
    return role_[id] != NodeRole::kSink && routing_.reachable(id);
  }
  /// Sum of losses_ over the queues that preempt (`preemptive`) or drop.
  std::uint64_t total_losses(bool preemptive) const;

  /// A packet is at `node` now: run the node's policy (switch on the role
  /// byte; immediate and buffered nodes run with no virtual call), then
  /// fire the occupancy probe.
  void handle(NodeId node, Packet&& packet);
  /// Hands `packet` to the link layer from `node`: next-hop choice, header
  /// update, transmit probes, link-delay scheduling, occupancy probe.
  void transmit_from(NodeId node, Packet&& packet);

  void arrive(NodeId node, Packet&& packet);
  void arrive_from_link(NodeId node, PacketPool::Handle handle);
  void deliver(const Packet& packet);
  void probe(NodeId node);
  std::size_t buffered_of(NodeId node) const;
  /// Throws std::out_of_range unless `id` is a routable non-sink node.
  void require_discipline(NodeId id) const;
  NodeId pick_next_hop(NodeId current, const Packet& packet,
                       sim::RandomStream& rng);
  /// Out of line so the common no-probe transmit path stays branch + fall
  /// through; only instrumented runs pay the dispatch loop.
  void dispatch_transmit_probes(NodeId from, NodeId to, const Packet& packet);

  sim::Simulator& simulator_;
  Topology topology_;
  RoutingTable routing_;
  NetworkConfig config_;

  // Structure-of-arrays node state, all indexed by NodeId.
  std::vector<NodeRole> role_;
  std::vector<std::uint32_t> disc_slot_;  // slab queue id or custom_ index
  std::vector<std::uint16_t> routing_seq_;
  std::vector<sim::RandomStream> rng_;
  std::vector<NodeCtx> ctx_;  // stable addresses after construction

  // The buffering nodes: one slab queue each (release events capture the
  // slab's address; Network never moves). A queue loses packets in at most
  // one way — a queue without a victim rule drops arrivals, one with a
  // rule preempts held packets — so one counter per queue, indexed by
  // queue id, serves both.
  core::DelayBuffer slab_;
  std::vector<std::uint64_t> losses_;

  // DisciplineSpec::custom nodes keep their objects.
  std::vector<std::unique_ptr<ForwardingDiscipline>> custom_;

  std::vector<SinkObserver*> observers_;
  OccupancyProbe occupancy_probe_;
  std::vector<TransmitProbe> transmit_probes_;
  HopSelector hop_selector_;
  PacketPool pool_;
  std::uint64_t next_uid_ = 0;
  std::uint64_t originated_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace tempriv::net
