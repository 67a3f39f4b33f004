#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace tempriv::telemetry {

/// Whether this build compiled the probe macros into the hot paths
/// (-DTEMPRIV_TELEMETRY=ON). Snapshot/merge machinery exists either way so
/// an OFF-build tempriv-merge can still combine ON-build shard snapshots.
constexpr bool compiled_in() noexcept {
#if defined(TEMPRIV_TELEMETRY_ENABLED)
  return true;
#else
  return false;
#endif
}

/// Metric identity is a compile-time enum, not a string registry: probe
/// sites index fixed per-thread arrays, so an enabled probe is a couple of
/// plain increments with no registration, hashing, or allocation anywhere.
/// Names (the JSON snapshot keys) live in name(); the two lists must stay
/// in sync — collect() iterates the enums and asks name() for each.
enum class Counter : std::uint32_t {
  // sim::EventQueue lanes
  kEqScheduleHeap,      ///< schedule() insertions into the 4-ary heap lane
  kEqScheduleFifo,      ///< schedule_monotone() appends to the FIFO ring
  kEqFifoDiverted,      ///< monotone calls below the ring tail, rerouted to the heap
  kEqTombstoneSkipped,  ///< cancelled records swept from the lane heads
  // core::DelayBuffer preemption/ejection, per victim policy
  kBufPreemptShortest,  ///< preempt() under kShortestRemaining
  kBufPreemptLongest,   ///< preempt() under kLongestRemaining
  kBufPreemptRandom,    ///< preempt() under kRandom
  kBufPreemptOldest,    ///< preempt() under kOldest
  kBufEjected,          ///< eject() by admission-order index
  // net::Network per-role packet handling
  kNetForwardImmediate,
  kNetForwardUnlimited,
  kNetForwardDropTail,
  kNetForwardRcad,
  kNetForwardCustom,
  kNetDropTailDropped,  ///< packets destroyed by a full drop-tail buffer
  // campaign
  kCampaignJobs,        ///< scenario jobs completed by runner workers
  kCount,
};

enum class Gauge : std::uint32_t {
  kEqPeakDepth,        ///< max concurrent pending events in one EventQueue
  kBufPeakOccupancy,   ///< max packets concurrently held by one buffer queue
  kMemNetworkBytes,    ///< net::Network::memory_bytes() at end of run
  kMemTopologyBytes,   ///< net::Topology::memory_bytes() at end of run
  kMemRoutingBytes,    ///< net::RoutingTable::memory_bytes() at end of run
  kCount,
};

enum class Hist : std::uint32_t {
  kBufOccupancy,      ///< buffer-queue size after each admit
  kCampaignJobWallUs, ///< per-job wall time, microseconds
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kHistCount =
    static_cast<std::size_t>(Hist::kCount);

/// Fixed power-of-two histogram geometry: bucket b counts values whose
/// bit_width is b, i.e. bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3},
/// bucket b = [2^(b-1), 2^b). The last bucket absorbs everything wider.
/// Fixed geometry is what makes shard merges a plain element-wise sum.
inline constexpr std::size_t kHistBuckets = 32;

constexpr std::size_t hist_bucket(std::uint64_t value) noexcept {
  const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistBuckets ? width : kHistBuckets - 1;
}

/// The DelayBuffer preempt counter for a core::VictimPolicy, relying on the
/// two enums declaring the policies in the same order (checked by test).
constexpr Counter preempt_counter(std::uint32_t policy_index) noexcept {
  return static_cast<Counter>(
      static_cast<std::uint32_t>(Counter::kBufPreemptShortest) + policy_index);
}

/// Snapshot key for each metric (stable across builds; the merge contract).
const char* name(Counter counter) noexcept;
const char* name(Gauge gauge) noexcept;
const char* name(Hist hist) noexcept;

}  // namespace tempriv::telemetry
