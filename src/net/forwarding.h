#pragma once

#include "net/packet_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace tempriv::net {

/// Services the network offers a buffering node: what core::DelayBuffer
/// needs to draw a delay, schedule a release and hand a packet on. A packet
/// is named by its handle in the owner's PacketPool; the buffer never sees
/// the packet itself. Network's node records implement it; tests drive a
/// DelayBuffer with a fake that owns a pool.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  virtual sim::Simulator& simulator() noexcept = 0;
  /// Node-private deterministic random stream (split from the network root).
  virtual sim::RandomStream& rng() noexcept = 0;
  virtual NodeId id() const noexcept = 0;

  /// Hands the packet `packet` names to the link layer *now*: it will
  /// arrive at the next hop after the configured transmission delay. Each
  /// buffered packet must be transmitted exactly once.
  virtual void transmit(PacketPool::Handle packet) = 0;
};

}  // namespace tempriv::net
