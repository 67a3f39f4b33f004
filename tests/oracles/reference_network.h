#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "core/discipline_spec.h"
#include "net/packet.h"
#include "net/topology.h"
#include "sim/random.h"

namespace tempriv::oracles {

/// The link timing of net::NetworkConfig (τ and the MAC jitter), restated
/// so the reference needs nothing from net/network.h.
struct LinkTiming {
  double hop_tx_delay = 1.0;
  double hop_jitter = 0.0;
};

/// One packet injection: `origin` originates a packet at `time`.
struct Injection {
  double time = 0.0;
  net::NodeId origin = net::kInvalidNode;
};

/// One packet reaching a sink, with the cleartext header it arrived with.
struct Delivery {
  std::uint64_t uid = 0;
  net::NodeId origin = net::kInvalidNode;
  double arrival = 0.0;
  std::uint16_t hop_count = 0;
  net::NodeId prev_hop = net::kInvalidNode;
  std::uint16_t routing_seq = 0;

  bool operator==(const Delivery&) const = default;
};

/// A naive store-and-forward network: the executable specification that
/// net::Network's event kernel, buffer slab and forwarding path must match
/// bit for bit. It shares no machinery with the engine — a
/// std::priority_queue of events on (time, seq), one plain struct per node
/// holding its packets in admission order, victims picked by the linear
/// select_victim scan and its own multi-source BFS routing tree — only the
/// engine's order of effects, which is the spec:
///
///  - injections are scheduled first, in list order, and a packet meets its
///    origin's own discipline before its first transmission;
///  - a full RCAD queue draws its victim, transmits it, then draws the
///    arrival's delay and schedules the arrival's release; a full
///    drop-tail queue destroys the arrival with no draw;
///  - a transmission increments the hop count, then takes the sender's
///    routing sequence number, then draws the link jitter from the
///    sender's stream, then schedules the arrival;
///  - event sequence numbers are taken in that schedule-call order, and a
///    preempted packet's release event is skipped when popped (it is not
///    counted as executed: the engine never runs one for a victim).
///
/// Supports every kind a DisciplineSpec can name (immediate, unlimited,
/// drop-tail, RCAD with any victim rule) under tree routing: every
/// forwarding path net::Network has.
class ReferenceNetwork {
 public:
  /// `specs[id]` configures node `id` (entries of sinks and unroutable nodes
  /// are ignored). Node `id` draws from `root.split(id)`. Throws
  /// std::invalid_argument for an injection at a node that does not
  /// forward.
  ReferenceNetwork(const net::Topology& topology,
                   std::vector<core::DisciplineSpec> specs, LinkTiming timing,
                   const sim::RandomStream& root,
                   const std::vector<Injection>& injections);

  static constexpr std::uint64_t kNoStop =
      std::numeric_limits<std::uint64_t>::max();

  /// Runs the events with time <= `deadline`, returning early after the
  /// event in which the `stop_after`-th packet is delivered (the engine's
  /// stop() from a sink observer). Returns the live events run.
  std::uint64_t run_until(double deadline, std::uint64_t stop_after = kNoStop);
  std::uint64_t run(std::uint64_t stop_after = kNoStop) {
    return run_until(std::numeric_limits<double>::infinity(), stop_after);
  }

  /// Every delivery so far, in delivery order.
  const std::vector<Delivery>& deliveries() const noexcept { return trace_; }

  /// Per-node counts, as net::Network reports them, plus the packets a
  /// node's discipline has handled (its own and forwarded ones).
  std::uint64_t handled(net::NodeId id) const { return nodes_.at(id).handled; }
  std::uint64_t preemptions(net::NodeId id) const {
    return nodes_.at(id).preemptions;
  }
  std::uint64_t drops(net::NodeId id) const { return nodes_.at(id).drops; }
  std::size_t buffered(net::NodeId id) const {
    return nodes_.at(id).held.size();
  }

  std::uint64_t originated() const noexcept { return originated_; }
  std::uint64_t delivered() const noexcept { return trace_.size(); }
  std::size_t buffered() const noexcept;
  std::uint64_t events_executed() const noexcept { return executed_; }
  /// Live events run at exactly the time of the live event before them —
  /// the ties the (time, seq) order must break as the engine does.
  std::uint64_t tied_events() const noexcept { return ties_; }

  /// True if `id` forwards packets (has a next hop toward a sink).
  bool forwards(net::NodeId id) const {
    return nodes_.at(id).next != net::kInvalidNode;
  }

 private:
  struct Held {
    net::Packet packet;
    double enqueue_time = 0.0;
    double release_time = 0.0;
  };

  struct Node {
    core::DisciplineSpec spec;
    sim::RandomStream stream{0};
    net::NodeId next = net::kInvalidNode;  // tree next hop
    bool sink = false;
    std::uint16_t routing_seq = 0;
    std::vector<Held> held;  // admission order
    std::uint64_t handled = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t drops = 0;
  };

  struct Event {
    enum class Kind : std::uint8_t { kInject, kArrive, kRelease };
    double time = 0.0;
    std::uint64_t seq = 0;
    Kind kind = Kind::kInject;
    net::NodeId node = net::kInvalidNode;
    net::Packet packet;  // kArrive: the packet; kRelease: packet.uid only

    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void schedule(Event event);
  /// True if `event` is a release whose packet was preempted.
  bool stale(const Event& event) const;
  void execute(const Event& event);
  void handle(net::NodeId id, net::Packet packet);
  void transmit(net::NodeId id, net::Packet packet);

  std::vector<Node> nodes_;
  LinkTiming timing_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_uid_ = 0;
  double now_ = 0.0;
  std::uint64_t originated_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t ties_ = 0;
  std::vector<Delivery> trace_;
};

}  // namespace tempriv::oracles
