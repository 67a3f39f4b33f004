#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/packet.h"

namespace tempriv::net {

/// The packet's only home: every packet the network holds, buffered at a
/// node or on a link, lives in one free-listed slot from the moment it is
/// emitted until it is delivered or dropped. Everything else names it by
/// handle: a delay buffer's release heap, the 32-byte link-delay closure
/// (inline in the event kernel), NodeContext::transmit. Forwarding never
/// touches the slot — the link closure carries the hop's header fields, and
/// transmit probes read a copy made through at() — and the packet is copied
/// out once, by take(), when it leaves the network.
///
/// Handles carry the occupant's identity ({seq:40, slot:24}, same scheme as
/// sim::EventId), so a stale handle — double take(), or a handle kept past
/// its packet's departure — can never alias the slot's next occupant: at()
/// and take() throw std::logic_error instead of handing back the wrong
/// packet. In steady state (every slot visited once) put/take never
/// allocate.
class PacketPool {
 public:
  class Handle {
   public:
    constexpr Handle() noexcept = default;
    constexpr explicit Handle(std::uint64_t value) noexcept : value_(value) {}

    constexpr bool valid() const noexcept { return value_ != 0; }
    constexpr std::uint64_t value() const noexcept { return value_; }

    friend constexpr bool operator==(Handle, Handle) noexcept = default;

   private:
    std::uint64_t value_ = 0;
  };

  /// Stores a packet and returns its claim ticket.
  /// Throws std::length_error beyond 2^24 live packets.
  Handle put(Packet&& packet) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.packet = packet;  // trivially-copyable: a memcpy
    const std::uint64_t aux = (next_seq_++ << kSlotBits) | slot;
    s.aux = aux;
    ++live_count_;
    return Handle(aux);
  }

  /// The live packet `handle` names, read in place; the reference is valid
  /// until the next put().
  const Packet& at(Handle handle) const {
    return slots_[checked_slot(handle)].packet;
  }

  /// Redeems a handle exactly once; frees the slot.
  Packet take(Handle handle) {
    const std::uint32_t slot = checked_slot(handle);
    Slot& s = slots_[slot];
    s.aux = 0;
    s.next_free = free_head_;
    free_head_ = slot;
    --live_count_;
    return s.packet;
  }

  /// Packets currently stored.
  std::size_t live() const noexcept { return live_count_; }

  /// Slots ever created (capacity diagnostics).
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Pre-sizes the pool for `capacity` live packets so the steady state
  /// never reallocates.
  void reserve(std::size_t capacity) { slots_.reserve(capacity); }

  /// Heap bytes held by the slot array (reserved capacity included).
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;

  struct Slot {
    Packet packet;
    std::uint64_t aux = 0;  // current occupant's identity; 0 = free
    std::uint32_t next_free = kNilSlot;
  };

  /// The slot of the live packet `handle` names; throws std::logic_error
  /// for a taken, default or forged handle.
  std::uint32_t checked_slot(Handle handle) const {
    const std::uint32_t slot =
        static_cast<std::uint32_t>(handle.value() & (kMaxSlots - 1));
    if (!handle.valid() || slot >= slots_.size() ||
        slots_[slot].aux != handle.value()) {
      throw std::logic_error("PacketPool: stale or invalid handle");
    }
    return slot;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].next_free = kNilSlot;
      return slot;
    }
    if (slots_.size() >= kMaxSlots) {
      throw std::length_error("PacketPool: too many live packets");
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;  // seq 0 reserved so Handle 0 is invalid
  std::size_t live_count_ = 0;
};

}  // namespace tempriv::net
