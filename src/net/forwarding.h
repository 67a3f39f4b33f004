#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace tempriv::net {

/// Services the network offers a per-node forwarding discipline. Passed to
/// ForwardingDiscipline::on_packet; also usable from callbacks the
/// discipline schedules through simulator().
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  virtual sim::Simulator& simulator() noexcept = 0;
  /// Node-private deterministic random stream (split from the network root).
  virtual sim::RandomStream& rng() noexcept = 0;
  virtual NodeId id() const noexcept = 0;

  /// Hands the packet to the link layer *now*: it will arrive at the next
  /// hop after the configured transmission delay. Each buffered packet must
  /// be transmitted exactly once.
  virtual void transmit(Packet&& packet) = 0;
};

/// Per-node store-and-forward policy object for custom disciplines, such as
/// the comparators in src/core/comparators.h and src/core/erlang_tuned.h.
/// The paper's built-in schemes — immediate forwarding, unlimited delaying,
/// drop-tail and RCAD — are not objects: core::DisciplineSpec describes
/// them and Network runs them from its flat per-node records.
///
/// Contract: for every on_packet() call the discipline eventually calls
/// ctx.transmit() exactly once for that packet (immediately, from a later
/// scheduled event, or — for lossy disciplines — never, in which case it
/// must count the packet in drops()).
class ForwardingDiscipline {
 public:
  virtual ~ForwardingDiscipline() = default;

  virtual void on_packet(Packet&& packet, NodeContext& ctx) = 0;

  /// Packets currently held in this node's buffer.
  virtual std::size_t buffered() const noexcept = 0;

  /// Packets transmitted early due to buffer preemption.
  virtual std::uint64_t preemptions() const noexcept { return 0; }

  /// Packets discarded because the buffer was full.
  virtual std::uint64_t drops() const noexcept { return 0; }
};

/// Builds one custom discipline object. core::DisciplineSpec::custom()
/// carries it; Network calls it once per node the spec is given to.
using DisciplineFactory =
    std::function<std::unique_ptr<ForwardingDiscipline>()>;

}  // namespace tempriv::net
