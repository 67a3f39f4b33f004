#pragma once

#include <cstdint>
#include <type_traits>

#include "crypto/payload.h"

namespace tempriv::net {

/// Dense node identifier (index into the topology's node table).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// The cleartext routing header (paper §2, "Cleartext Headers"), modeled on
/// the TinyOS 1.1.7 MultiHop header the paper cites: previous hop, origin id
/// (distinguishes generation from forwarding), a routing-layer sequence
/// number (loop suppression; not flow-specific), and the hop count. This is
/// everything the eavesdropper can read off the air.
struct RoutingHeader {
  NodeId prev_hop = kInvalidNode;
  NodeId origin = kInvalidNode;
  std::uint16_t routing_seq = 0;  ///< per-link, reused across flows
  std::uint16_t hop_count = 0;    ///< hops traversed so far
};

/// A sensor message in flight: cleartext routing header plus the sealed
/// (encrypted + MACed) application payload. The creation time-stamp and
/// application sequence number live *inside* the sealed payload, so nothing
/// in this struct besides the header is intelligible to the adversary.
///
/// The sealed payload's ciphertext is stored inline (crypto::InlineBytes),
/// so a Packet is a flat, trivially-copyable value: it is stored once, in a
/// PacketPool slot, with a plain memcpy, and the forwarding path never
/// allocates per packet.
struct Packet {
  RoutingHeader header;
  crypto::SealedPayload payload;
  /// Simulator-internal unique id (not transmitted; used for bookkeeping
  /// such as matching deliveries to ground truth in test harnesses).
  std::uint64_t uid = 0;
};

static_assert(std::is_trivially_copyable_v<Packet>,
              "Packet must stay a flat POD: the zero-allocation packet path "
              "stores it in a PacketPool slot with a memcpy");

}  // namespace tempriv::net
