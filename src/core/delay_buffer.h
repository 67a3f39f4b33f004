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

/// Shared machinery for the buffering disciplines: holds packets, schedules
/// their future release through the simulation kernel, and supports
/// cancelling a scheduled release so a packet can leave early (the RCAD
/// preemption primitive).
///
/// One DelayBuffer is a slab serving any number of queues — one per
/// buffering node in a Network (made when a packet first reaches the node,
/// under a single spec), a single queue inside a stand-alone discipline. Its
/// memory is sized by the packets held, not by queues × capacity:
///
///  - **Slots.** One free-listed slot vector shared by every queue. A slot
///    holds a packet, its release event and times, its links in the owning
///    queue's admission-order list, its victim-heap position and the owning
///    queue's id. It grows only when more packets are held at once than
///    ever before (Contiki's `memb` fixed-block pool, network-wide).
///  - **Queue heads** (24 bytes each): admission-list head and tail, live
///    count, the queue's victim block, and an index into a small table of
///    QueueConfig entries (delay distribution, victim policy, capacity).
///  - **Victim blocks.** Only preemptive queues under kShortestRemaining /
///    kLongestRemaining keep a victim index: a binary heap keyed on
///    (release_time, admission order) living in a power-of-two block of a
///    shared arena. A queue takes a one-node block when it goes from 0 to 1
///    packets and returns it to its size class's free list when it
///    empties; a full block is swapped for one twice its size, so a queue's
///    block tracks the packets it holds. kOldest is the list head and
///    kRandom one RNG draw plus a list walk, so those queues — and every
///    queue that never preempts — keep no index at all.
///
/// Victim choice is bit-identical to a linear first-wins scan over the
/// admission order (a test oracle in tests/oracles/), and RNG draws happen
/// in the same order, so simulation outputs do not depend on how packets
/// are laid out in the slab.
class DelayBuffer {
 public:
  using QueueId = std::uint32_t;
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  struct Held {
    net::Packet packet;
    sim::EventId release_event;
    double enqueue_time = 0.0;
    double release_time = 0.0;
  };

  /// What a queue is: where its delays come from, whether (and how) it
  /// preempts, and how many packets its owner lets it hold.
  struct QueueConfig {
    /// Shared-const, so a whole network of identically configured nodes
    /// holds one distribution object (sample() is const).
    std::shared_ptr<const DelayDistribution> delay;
    /// Victim rule for preempt(); nullopt for queues that never preempt
    /// (unlimited and drop-tail buffering), which keep no victim index.
    std::optional<VictimPolicy> victim;
    /// Admission bound (k of M/M/k/k), enforced by offer(); admit() does
    /// not check it.
    std::size_t capacity = kUnbounded;

    /// Same distribution object, victim rule and bound.
    bool operator==(const QueueConfig&) const = default;
  };

  /// An empty slab with no queues; add them with add_queue().
  DelayBuffer() = default;

  /// A one-queue buffer (queue 0) that may preempt under `policy`, with
  /// no capacity bound — the stand-alone form custom disciplines and tests
  /// use. unique_ptr arguments convert implicitly.
  explicit DelayBuffer(std::shared_ptr<const DelayDistribution> delay,
                       VictimPolicy policy = VictimPolicy::kShortestRemaining);

  /// A one-queue buffer (queue 0) configured by `config`.
  explicit DelayBuffer(QueueConfig config);

  /// Movable while empty (moving parks no events); an admitted packet's
  /// release closure captures `this`, so a non-empty buffer must stay put.
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
  /// victim arena (capacity-based; the shared distributions are not
  /// counted — they are shared).
  std::size_t memory_bytes() const noexcept;

  /// Copies a queue's held packets in admission order (oldest first). For
  /// tests and diagnostics; O(n). The one-argument form reads queue 0.
  std::vector<Held> snapshot(QueueId queue) const;
  std::vector<Held> snapshot() const { return snapshot(0); }

  /// Pre-sizes the slot slab for `packets` concurrently held packets.
  void reserve(std::size_t packets);

  /// Draws a delay Y from the queue's distribution and schedules the
  /// packet's transmission at now + Y. The packet leaves the buffer (and is
  /// transmitted via `ctx`) when the event fires. Ignores the capacity;
  /// offer() is the arrival rule.
  void admit(QueueId queue, net::Packet&& packet, net::NodeContext& ctx);
  void admit(net::Packet&& packet, net::NodeContext& ctx) {
    admit(0, std::move(packet), ctx);
  }

  /// What offer() did with an arrival.
  enum class Admission : std::uint8_t {
    kAdmitted,   ///< the queue had room; the packet is held
    kDropped,    ///< full, no victim rule: the arrival was destroyed
    kPreempted,  ///< full: a held packet was transmitted early, then the
                 ///< arrival was admitted
  };

  /// The arrival rule of every buffering scheme, written once. Below the
  /// queue's capacity the packet is admitted (admit()). At capacity a queue
  /// with no victim rule drops it — the M/M/k/k loss event of Eq. (5) — and
  /// a preemptive queue ejects its victim (preempt()), transmits it through
  /// `ctx`, then admits the arrival (RCAD, §5). The arrival's delay is
  /// drawn after any victim draw, from `delay` if given, else from the
  /// queue's own distribution.
  Admission offer(QueueId queue, net::Packet&& packet, net::NodeContext& ctx,
                  const DelayDistribution* delay = nullptr);

  /// Selects the victim under the queue's policy, cancels its scheduled
  /// release, and returns it to the caller (RCAD transmits it immediately).
  /// O(log n) for the heap-indexed policies. Throws std::logic_error if the
  /// queue is empty or never preempts.
  net::Packet preempt(QueueId queue, net::NodeContext& ctx);
  net::Packet preempt(net::NodeContext& ctx) { return preempt(0, ctx); }

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
  /// of the per-queue counts, every queue's admission list has its count of
  /// live slots owned by that queue, and every victim heap holds exactly
  /// its queue's packets in heap order. O(slots).
  bool consistent() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    Held held;
    std::uint32_t queue = kNil;  // owning queue; kNil = free slot
    std::uint32_t heap_pos = kNil;
    std::uint32_t prev = kNil;  // admission-order list links; `next`
    std::uint32_t next = kNil;  // doubles as the free-list link
  };

  struct Queue {
    std::uint32_t head = kNil;  // oldest admission
    std::uint32_t tail = kNil;  // newest admission
    std::uint32_t count = 0;
    std::uint32_t config = 0;
    std::uint32_t block = kNil;  // victim block offset in blocks_
    std::uint8_t block_class = 0;  // block holds 2^block_class nodes
  };

  /// Victim-heap node: the ordering keys ride along with the slot index, so
  /// sift compares stay inside the (dense) block instead of chasing slots.
  /// A live slot's release_time never changes, so the copy cannot go stale;
  /// admit_seq (admission order, the tie-breaker) lives only here. `key` is
  /// the release time, negated under kLongestRemaining so both policies
  /// compare ascending with no branch (negation is exact and preserves
  /// ties, so victim choice is unchanged).
  struct HeapNode {
    double key = 0.0;
    std::uint64_t admit_seq = 0;
    std::uint32_t slot = kNil;  // in a free block: the next free block
  };

  static constexpr std::size_t kClasses = 32;

  bool indexed(const Queue& q) const noexcept;

  std::uint32_t acquire_slot();
  void link_back(Queue& q, std::uint32_t slot) noexcept;
  void unlink(Queue& q, std::uint32_t slot) noexcept;

  std::uint32_t acquire_block(std::uint8_t block_class);
  void release_block(std::uint32_t block, std::uint8_t block_class) noexcept;
  /// Makes room for one more victim node in `q`'s block, taking a
  /// one-node block or doubling a full one.
  void ensure_block_room(Queue& q);
  void heap_push(Queue& q, std::uint32_t slot, std::uint64_t admit_seq);
  void heap_remove(Queue& q, std::uint32_t slot) noexcept;
  /// Re-sites `node` starting at hole `pos` of `heap`, whichever direction
  /// it must move; writes it once at its final position (hole-based, no
  /// swaps).
  void heap_sift(std::span<HeapNode> heap, std::uint32_t pos,
                 HeapNode node) noexcept;

  /// Holds the packet for `delay` (>= 0) and schedules its release.
  void admit_with_delay(QueueId queue, net::Packet&& packet,
                        net::NodeContext& ctx, double delay);
  std::uint32_t victim_slot(const Queue& q, sim::RandomStream& rng) const;
  /// Removes the packet in `slot` from every structure and returns it; its
  /// release event is the caller's to cancel (or is the one running).
  net::Packet extract(std::uint32_t slot);
  void release(std::uint32_t slot, std::uint64_t uid, net::NodeContext& ctx);

  std::vector<QueueConfig> configs_;
  std::vector<Queue> queues_;
  std::vector<Slot> slots_;
  std::vector<HeapNode> blocks_;  // victim-block arena
  std::array<std::uint32_t, kClasses> free_block_ = [] {
    std::array<std::uint32_t, kClasses> heads{};
    heads.fill(kNil);  // per size class: first free block, kNil = none
    return heads;
  }();
  std::uint32_t free_slot_ = kNil;
  std::uint64_t next_admit_seq_ = 1;
  std::size_t live_ = 0;
  OccupancyCounts occupancy_{};
  std::uint32_t peak_occupancy_ = 0;
};

}  // namespace tempriv::core
