#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/delay_buffer.h"
#include "core/delay_distribution.h"

namespace tempriv::core {

/// Value-type description of one node's forwarding policy — the only way to
/// configure a node. Network lays node state out in its flat per-node
/// records directly from it: a buffering kind becomes one queue of the
/// network-wide DelayBuffer slab, and immediate forwarding is a role byte.
/// Give one spec to every node, or one per node (§3.3 sink weighting, mixed
/// networks).
struct DisciplineSpec {
  /// The paper's arrival rules.
  enum class Kind : std::uint8_t {
    kImmediate,  ///< case 1: forward on arrival
    kUnlimited,  ///< case 2: delay, unbounded buffer (M/M/∞)
    kDropTail,   ///< §4: delay, k slots, drop the arrival when full (M/M/k/k)
    kRcad,       ///< §5: delay, k slots, preempt a held packet when full
  };

  Kind kind = Kind::kImmediate;
  /// Required for the buffering kinds. Shared, so nodes given the same spec
  /// hold one distribution object (and one slab configuration).
  std::shared_ptr<const DelayDistribution> delay;
  /// Buffer slots per node (kDropTail / kRcad; ignored otherwise).
  std::size_t capacity = 0;
  /// RCAD victim-selection rule (kRcad only).
  VictimPolicy victim = VictimPolicy::kShortestRemaining;

  static DisciplineSpec immediate();
  static DisciplineSpec unlimited(
      std::shared_ptr<const DelayDistribution> delay);
  static DisciplineSpec unlimited_exponential(double mean_delay);
  static DisciplineSpec droptail(
      std::shared_ptr<const DelayDistribution> delay, std::size_t capacity);
  static DisciplineSpec droptail_exponential(double mean_delay,
                                             std::size_t capacity);
  static DisciplineSpec rcad(
      std::shared_ptr<const DelayDistribution> delay, std::size_t capacity,
      VictimPolicy victim = VictimPolicy::kShortestRemaining);
  static DisciplineSpec rcad_exponential(
      double mean_delay, std::size_t capacity,
      VictimPolicy victim = VictimPolicy::kShortestRemaining);

  /// True for the kinds that hold packets in the buffer slab.
  bool buffered() const noexcept {
    return kind != Kind::kImmediate;
  }

  /// The slab queue a buffering kind runs on: its delay distribution, its
  /// bound (kUnbounded for kUnlimited) and its victim rule (kRcad only — a
  /// queue with none drops arrivals when full). See DelayBuffer::offer().
  DelayBuffer::QueueConfig queue_config() const;
};

}  // namespace tempriv::core
