#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/delay_buffer.h"
#include "core/delay_distribution.h"
#include "net/forwarding.h"

namespace tempriv::core {

/// Case 1 of the paper's evaluation: forward every packet the instant it
/// arrives. No privacy effort; latency = hop count × τ exactly.
class ImmediateForwarding final : public net::ForwardingDiscipline {
 public:
  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override {
    ctx.transmit(std::move(packet));
  }
  std::size_t buffered() const noexcept override { return 0; }
  net::DisciplineKind kind() const noexcept override {
    return net::DisciplineKind::kImmediate;
  }
};

/// Case 2: delay every packet by an independent draw from the delay
/// distribution, with unbounded buffer space (the idealized M/M/∞ model of
/// §4 when the delays are exponential).
class UnlimitedDelaying final : public net::ForwardingDiscipline {
 public:
  explicit UnlimitedDelaying(std::shared_ptr<const DelayDistribution> delay)
      : buffer_(DelayBuffer::QueueConfig{std::move(delay), std::nullopt}) {}

  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override {
    buffer_.admit(std::move(packet), ctx);
  }
  std::size_t buffered() const noexcept override { return buffer_.size(); }
  net::DisciplineKind kind() const noexcept override {
    return net::DisciplineKind::kUnlimitedDelay;
  }
  /// The queue configuration Network copies into its buffer slab; the
  /// discipline object is discarded afterwards.
  const DelayBuffer::QueueConfig& queue_config() const { return buffer_.config(0); }

 private:
  DelayBuffer buffer_;
};

/// The M/M/k/k model of §4 with plain packet dropping: an arrival that
/// finds all `capacity` slots full is discarded (counted in drops()).
class DropTailDelaying final : public net::ForwardingDiscipline {
 public:
  DropTailDelaying(std::shared_ptr<const DelayDistribution> delay,
                   std::size_t capacity);

  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override;
  std::size_t buffered() const noexcept override { return buffer_.size(); }
  std::uint64_t drops() const noexcept override { return drops_; }
  std::size_t capacity() const noexcept { return buffer_.config(0).capacity; }
  net::DisciplineKind kind() const noexcept override {
    return net::DisciplineKind::kDropTail;
  }
  const DelayBuffer::QueueConfig& queue_config() const { return buffer_.config(0); }

 private:
  DelayBuffer buffer_;
  std::uint64_t drops_ = 0;
};

/// RCAD — Rate-Controlled Adaptive Delaying (paper §5, the headline
/// contribution). Behaves like DropTailDelaying, except that when the
/// buffer is full the node *preempts* a buffered packet instead of dropping
/// the arrival: the victim (by default the packet with the shortest
/// remaining delay, so realized delays stay closest to the intended
/// distribution) has its release event cancelled and is transmitted
/// immediately; the new packet is then admitted with a fresh delay.
/// Preemption adapts the effective service rate µ to the offered load
/// automatically — no signalling, no parameter changes.
class RcadDiscipline final : public net::ForwardingDiscipline {
 public:
  RcadDiscipline(std::shared_ptr<const DelayDistribution> delay,
                 std::size_t capacity,
                 VictimPolicy victim_policy = VictimPolicy::kShortestRemaining);

  void on_packet(net::Packet&& packet, net::NodeContext& ctx) override;
  std::size_t buffered() const noexcept override { return buffer_.size(); }
  std::uint64_t preemptions() const noexcept override { return preemptions_; }
  std::size_t capacity() const noexcept { return buffer_.config(0).capacity; }
  VictimPolicy victim_policy() const noexcept { return *buffer_.config(0).victim; }
  net::DisciplineKind kind() const noexcept override {
    return net::DisciplineKind::kRcad;
  }
  const DelayBuffer::QueueConfig& queue_config() const { return buffer_.config(0); }

 private:
  DelayBuffer buffer_;
  std::uint64_t preemptions_ = 0;
};

}  // namespace tempriv::core
