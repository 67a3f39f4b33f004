#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/delay_distribution.h"
#include "net/forwarding.h"

namespace tempriv::core {

/// RCAD victim-selection rule (paper §5 uses shortest-remaining-delay; the
/// alternatives exist for the ablation bench).
enum class VictimPolicy {
  kShortestRemaining,  ///< paper: closest to its natural departure
  kLongestRemaining,   ///< adversarial ablation: most premature release
  kRandom,             ///< uniformly random buffered packet
  kOldest,             ///< earliest enqueue time (FIFO-style)
};

const char* to_string(VictimPolicy policy) noexcept;

/// Shared machinery for the buffering disciplines: holds packets and
/// releases each one through the simulation kernel when its delay runs out,
/// or early, as the victim of an RCAD preemption (§5).
///
/// One DelayBuffer is a slab serving any number of queues — one per
/// buffering node in a Network (made when a packet first reaches the node,
/// under a single spec), a single queue inside a stand-alone discipline. Its
/// memory is sized by the packets held, not by queues × capacity:
///
///  - **Slots.** One free-listed slot vector shared by every queue. A slot
///    holds a packet and its times, its release-heap position and the
///    owning queue's id. It grows only when more packets are held at once
///    than ever before (Contiki's `memb` fixed-block pool, network-wide).
///  - **Queue heads** (24 bytes each): live count, the queue's release
///    block, its kernel event, and an index into a small table of
///    QueueConfig entries (delay distribution, victim policy, capacity).
///  - **Release blocks.** Every non-empty queue keeps its packets in a
///    binary min-heap on (release time, kernel sequence number) living in a
///    power-of-two block of a shared arena. A queue takes a one-node block
///    when it goes from 0 to 1 packets and returns it to its size class's
///    free list when it empties; a full block is swapped for one twice its
///    size, so a queue's block tracks the packets it holds.
///
/// **One kernel event per queue.** A non-empty queue owns exactly one
/// pending kernel event, keyed on its heap root — the packet due to leave
/// next, and the paper's shortest-remaining victim. Each admission reserves
/// a kernel sequence number where a per-packet release would have been
/// scheduled, so releases run in exactly the order one event per packet
/// would give, ties included. The event is re-keyed in place when the root
/// changes; a queue empties only through a release, so the event never has
/// to be withdrawn. A node's `seq` also orders admissions, so the heap is
/// the only index a queue keeps: kLongestRemaining, kOldest and kRandom
/// scan or select within the dense block. Victim choice is bit-identical
/// to a linear first-wins scan over the admission order (a test oracle in
/// tests/oracles/), with RNG draws in the same order.
class DelayBuffer {
 public:
  using QueueId = std::uint32_t;
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  struct Held {
    net::Packet packet;
    double enqueue_time = 0.0;
    double release_time = 0.0;
  };

  /// What a queue is: where its delays come from, whether (and how) it
  /// preempts, and how many packets its owner lets it hold.
  struct QueueConfig {
    /// Shared-const, so a whole network of identically configured nodes
    /// holds one distribution object (sample() is const).
    std::shared_ptr<const DelayDistribution> delay;
    /// Victim rule for offer() at capacity; nullopt for queues that never
    /// preempt (unlimited and drop-tail buffering).
    std::optional<VictimPolicy> victim;
    /// Admission bound (k of M/M/k/k), enforced by offer().
    std::size_t capacity = kUnbounded;

    /// Same distribution object, victim rule and bound.
    bool operator==(const QueueConfig&) const = default;
  };

  /// An empty slab with no queues; add them with add_queue().
  DelayBuffer() = default;

  /// A one-queue buffer (queue 0) with no capacity bound, so it never
  /// preempts or drops. unique_ptr arguments convert implicitly.
  explicit DelayBuffer(std::shared_ptr<const DelayDistribution> delay);

  /// A one-queue buffer (queue 0) configured by `config`.
  explicit DelayBuffer(QueueConfig config);

  /// Movable while empty (moving parks no events); a non-empty queue's
  /// kernel event captures `this`, so a non-empty buffer must stay put.
  DelayBuffer(DelayBuffer&&) = default;
  DelayBuffer& operator=(DelayBuffer&&) = default;

  /// Adds a configuration to the table and returns its index. Throws
  /// std::invalid_argument for a null distribution or a zero capacity.
  std::uint32_t add_config(QueueConfig config);
  /// Adds an empty queue using configuration `config` and returns its id
  /// (ids are dense, in creation order).
  QueueId add_queue(std::uint32_t config);

  std::size_t queue_count() const noexcept { return queues_.size(); }
  const QueueConfig& config(QueueId queue) const noexcept {
    return configs_[queues_[queue].config];
  }

  /// Packets held across all queues (the slab's live slots).
  std::size_t size() const noexcept { return live_; }
  /// Packets held by one queue.
  std::size_t size(QueueId queue) const noexcept { return queues_[queue].count; }

  /// Heap bytes held by the slot slab, queue heads, configuration table and
  /// release arena (capacity-based; the shared distributions are not
  /// counted — they are shared).
  std::size_t memory_bytes() const noexcept;

  /// Copies a queue's held packets in admission order (oldest first). For
  /// tests and diagnostics; O(n). The one-argument form reads queue 0.
  std::vector<Held> snapshot(QueueId queue) const;
  std::vector<Held> snapshot() const { return snapshot(0); }

  /// Pre-sizes the slot slab for `packets` concurrently held packets.
  void reserve(std::size_t packets);

  /// What offer() did with an arrival.
  enum class Admission : std::uint8_t {
    kAdmitted,   ///< the queue had room; the packet is held
    kDropped,    ///< full, no victim rule: the arrival was destroyed
    kPreempted,  ///< full: a held packet was transmitted early, then the
                 ///< arrival was admitted
  };

  /// The arrival rule of every buffering scheme, written once. Below the
  /// queue's capacity the packet is admitted: it draws a delay Y and is
  /// held until now + Y, when it leaves and is transmitted via `ctx`. Every
  /// packet a queue holds must come with the same `ctx` (its node's): the
  /// queue's one kernel event keeps the context it was scheduled with. At
  /// capacity a queue
  /// with no victim rule drops it — the M/M/k/k loss event of Eq. (5) — and
  /// a preemptive queue ejects its victim under its policy, transmits it
  /// through `ctx`, then admits the arrival (RCAD, §5). The arrival's delay
  /// is drawn after any victim draw, from `delay` if given, else from the
  /// queue's own distribution. The queue's kernel event is re-keyed at most
  /// once, after both steps.
  Admission offer(QueueId queue, net::Packet&& packet, net::NodeContext& ctx,
                  const DelayDistribution* delay = nullptr);

  /// Lifetime packet counts over every queue: packets admitted, released
  /// when their delay ran out, and transmitted early as preemption victims.
  /// Every admitted packet leaves exactly one way or is still held, so
  /// admitted() == released() + preempted() + size() at all times.
  std::uint64_t admitted() const noexcept { return admitted_; }
  std::uint64_t released() const noexcept { return released_; }
  std::uint64_t preempted() const noexcept { return preempted_; }

  /// Admissions counted by the admitting queue's size just after, in
  /// power-of-two buckets: bucket b counts sizes s with bit_width(s) == b
  /// (bucket 1 is size 1, bucket 2 sizes 2-3, bucket 3 sizes 4-7, ...); the
  /// last bucket absorbs everything wider. The M/M/k/k occupancy seen by
  /// arrivals, over every queue of the slab.
  static constexpr std::size_t kOccupancyBuckets = 32;
  using OccupancyCounts = std::array<std::uint64_t, kOccupancyBuckets>;
  const OccupancyCounts& occupancy() const noexcept { return occupancy_; }
  /// Most packets any one queue has held at once.
  std::uint32_t peak_occupancy() const noexcept { return peak_occupancy_; }

  /// Structural self-check for tests: the slab's live slots equal the sum
  /// of the per-queue counts, every non-empty queue's release heap holds
  /// exactly its packets in heap order, and the free list holds the rest.
  /// O(slots).
  bool consistent() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    Held held;
    std::uint32_t queue = kNil;  // owning queue; kNil = free slot
    std::uint32_t heap_pos = kNil;  // in a free slot: the next free slot
  };

  struct Queue {
    std::uint32_t count = 0;
    std::uint32_t config = 0;
    std::uint32_t block = kNil;  // release block offset in blocks_
    std::uint8_t block_class = 0;  // block holds 2^block_class nodes
    sim::EventId event;  // keyed on the root; pending iff count != 0
  };

  /// Release-heap node: the ordering keys ride along with the slot index,
  /// so sift compares stay inside the (dense) block instead of chasing
  /// slots. A live slot's release_time never changes, so the copy cannot go
  /// stale; `seq`, the kernel sequence number reserved at admission (the
  /// tie-breaker, in admission order), lives only here.
  struct HeapNode {
    double release = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = kNil;  // in a free block: the next free block
  };

  static constexpr std::size_t kClasses = 32;

  std::uint32_t acquire_slot();
  /// The queue's nodes in admission (`seq`) order.
  std::span<const HeapNode> admission_order(const Queue& q) const;

  std::uint32_t acquire_block(std::uint8_t block_class);
  void release_block(std::uint32_t block, std::uint8_t block_class) noexcept;
  /// Makes room for one more heap node in `q`'s block, taking a one-node
  /// block or doubling a full one.
  void ensure_block_room(Queue& q);
  void heap_push(Queue& q, std::uint32_t slot, std::uint64_t seq);
  void heap_remove(Queue& q, std::uint32_t slot) noexcept;
  /// Re-sites `node` starting at hole `pos` of `heap`, whichever direction
  /// it must move; writes it once at its final position (hole-based, no
  /// swaps).
  void heap_sift(std::span<HeapNode> heap, std::uint32_t pos,
                 HeapNode node) noexcept;

  /// Holds the packet for `delay` (finite, >= 0) in the release heap; the
  /// caller keys the queue's event.
  void admit_with_delay(QueueId queue, net::Packet&& packet,
                        net::NodeContext& ctx, double delay);
  std::uint32_t victim_slot(const Queue& q, sim::RandomStream& rng) const;
  /// Removes the packet in `slot` from every structure and returns it.
  net::Packet extract(std::uint32_t slot);
  /// The queue's kernel event: transmits the root, keys the next event.
  void release_head(QueueId queue, net::NodeContext& ctx);

  std::vector<QueueConfig> configs_;
  std::vector<Queue> queues_;
  std::vector<Slot> slots_;
  std::vector<HeapNode> blocks_;  // release-block arena
  mutable std::vector<HeapNode> scratch_;  // admission_order()'s buffer
  std::array<std::uint32_t, kClasses> free_block_ = [] {
    std::array<std::uint32_t, kClasses> heads{};
    heads.fill(kNil);  // per size class: first free block, kNil = none
    return heads;
  }();
  std::uint32_t free_slot_ = kNil;
  std::size_t live_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t released_ = 0;
  std::uint64_t preempted_ = 0;
  OccupancyCounts occupancy_{};
  std::uint32_t peak_occupancy_ = 0;
};

}  // namespace tempriv::core
