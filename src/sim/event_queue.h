#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace tempriv::sim {

/// Opaque handle to a scheduled event; used to cancel it later.
/// Value 0 is reserved for "invalid".
///
/// Internally the value is the event's unique "aux" word: bits [0,24) hold
/// the pool slot index and bits [24,64) the event's global sequence number.
/// The sequence number makes every handle unique for the queue's lifetime,
/// so a handle kept past its event's firing (or cancellation) can never
/// alias the slot's next occupant.
class EventId {
 public:
  constexpr EventId() noexcept = default;
  constexpr explicit EventId(std::uint64_t value) noexcept : value_(value) {}

  constexpr bool valid() const noexcept { return value_ != 0; }
  constexpr std::uint64_t value() const noexcept { return value_; }

  friend constexpr bool operator==(EventId, EventId) noexcept = default;

 private:
  std::uint64_t value_ = 0;
};

/// Priority queue of timed callbacks with O(log n) insert/pop and O(1)
/// cancellation. Ties in time are broken by insertion order so runs are
/// fully deterministic.
///
/// The design is a free-listed slot pool plus a 4-ary implicit heap of
/// 16-byte {key, aux} records:
///  - callbacks live in fixed-size pool slots (InlineCallback — no per-event
///    heap allocation for the capture sizes the simulator uses), stored in
///    1024-slot chunks so pool growth never moves a stored callback;
///  - `key` is the event time's bits mapped monotonically to an unsigned
///    integer (IEEE-754 totally ordered for finite doubles), and `aux`
///    packs {seq:40, slot:24}, so the heap's entire (time, seq) ordering
///    contract is two integer compares on one 16-byte record;
///  - EventId is the aux word itself, so cancel() is an array index plus one
///    8-byte identity compare — no hashing, no tombstone set;
///  - cancelling frees the slot immediately and leaves the heap record
///    behind as a tombstone; records whose aux no longer matches their
///    slot's current occupant are skipped when they surface at the head,
///    and cancel-free workloads skip the check entirely.
/// In steady state (pool and heap at capacity) schedule/cancel/pop perform
/// zero heap allocations (see the allocation-counter test and microbench).
class EventQueue {
 public:
  /// Inline capture budget for scheduled callbacks: enough for the largest
  /// hot-path lambda in the simulator (DelayBuffer's release closure); a
  /// bigger callable still works but falls back to one heap allocation.
  using Callback = InlineCallback<48>;

  struct Event {
    Time at = kTimeZero;
    EventId id;
    Callback action;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts `action` to fire at time `at`. Returns a handle for cancel().
  /// Throws std::length_error if the queue would exceed 2^24 concurrent
  /// events or 2^40 total events (far beyond any simulated workload).
  template <class F>
  EventId schedule(Time at, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    s.action.emplace(std::forward<F>(action));
    const std::uint64_t aux = next_aux(slot);
    s.aux = aux;
    s.lane = 0;
    heap_push(HeapEntry{time_to_key(at), aux});
    ++scheduled_heap_;
    note_scheduled();
    return EventId(aux);
  }

  /// schedule() for event streams whose times arrive in non-decreasing
  /// order — constant-latency link arrivals scheduled from a non-decreasing
  /// simulation clock being the canonical case. Such records bypass the
  /// heap entirely: they append to a sorted FIFO ring (O(1) insert, O(1)
  /// pop, one 16-byte slot each) that every pop path merges with the heap
  /// by the same (time, seq) order, so execution order — and therefore
  /// every simulation result — is bit-identical to scheduling through the
  /// heap. Monotonicity is checked, not trusted: a time below the ring's
  /// tail simply routes through the heap lane, keeping correctness
  /// unconditional. cancel() works on these events exactly as on
  /// heap-scheduled ones.
  template <class F>
  EventId schedule_monotone(Time at, F&& action) {
    const std::uint64_t key = time_to_key(at);
    if (fifo_size_ != 0 && key < fifo_tail_key_) {
      ++fifo_diverted_;
      return schedule(at, std::forward<F>(action));
    }
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    s.action.emplace(std::forward<F>(action));
    const std::uint64_t aux = next_aux(slot);
    s.aux = aux;
    s.lane = 1;
    fifo_push(HeapEntry{key, aux});
    fifo_tail_key_ = key;
    ++scheduled_fifo_;
    note_scheduled();
    return EventId(aux);
  }

  /// Cancels a pending event. Returns true if the event was still pending
  /// (it will not fire); false if it already fired, was already cancelled,
  /// or the id is invalid.
  bool cancel(EventId id);

  /// Runs the earliest pending event — (time, seq) order across both lanes —
  /// in place in its pool slot: invokes
  /// `dispatch(Time at, EventId id, Callback& action)` with the stored
  /// callback, releases the slot afterwards (even if `dispatch` throws), and
  /// returns true; returns false, touching nothing, if the queue is empty.
  /// The event's handle dies before `dispatch` runs. The callback may freely
  /// schedule or cancel other events while executing — pool chunks never
  /// move, and the dispatched slot rejoins the free list only after
  /// `dispatch` returns. Equal-time events run one call each, in insertion
  /// order; an event scheduled from a callback at the current time takes a
  /// later sequence number, so it runs after every event already pending
  /// at that time.
  template <class Dispatch>
  bool dispatch_head(Dispatch&& dispatch) {
    // Both lane heads are live here: every cancel and every dispatch ends
    // by sweeping leading tombstones.
    const bool heap_has = !heap_.empty();
    if (!heap_has && fifo_size_ == 0) return false;
    const bool from_fifo =
        fifo_size_ != 0 && (!heap_has || fifo_front().precedes(heap_.front()));
    const HeapEntry top = from_fifo ? fifo_front() : heap_.front();
    const std::uint32_t slot = aux_slot(top.aux);
    // Start pulling the slot (a random-access line) into cache while the
    // sift-down below walks the heap; the two latencies overlap.
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slot_at(slot), 1);
#endif
    if (from_fifo) {
      fifo_pop_front();
    } else {
      heap_pop_front();
    }
    Slot& s = slot_at(slot);
    s.aux = 0;  // the handle dies before the callback runs
    --live_count_;
    FinishDispatch finisher{*this, slot};
    dispatch(key_to_time(top.key), EventId(top.aux), s.action);
    return true;
  }

  /// Removes and returns the earliest pending event, or nullopt if empty
  /// (dispatch_head() with the callback moved out instead of run).
  std::optional<Event> pop();

  /// Time of the earliest pending event, or kTimeInfinity if empty.
  Time next_time() const noexcept {
    // Leading tombstones are swept on every cancel/pop, so both heads are
    // live; the earliest record is the smaller of the two lane heads.
    std::uint64_t key = ~0ull;
    bool any = false;
    if (!heap_.empty()) {
      key = heap_.front().key;
      any = true;
    }
    if (fifo_size_ != 0) {
      const std::uint64_t fkey = fifo_[fifo_head_].key;
      if (!any || fkey < key) key = fkey;
      any = true;
    }
    return any ? key_to_time(key) : kTimeInfinity;
  }

  /// Number of pending (non-cancelled) events.
  std::size_t size() const noexcept { return live_count_; }
  bool empty() const noexcept { return live_count_ == 0; }

  /// Drops every pending event, frees all pool slots, and discards any
  /// tombstoned heap records. Handles issued before clear() are invalidated
  /// (their slots' occupant words are reset), so they can never cancel an
  /// event scheduled afterwards. Capacity is retained.
  void clear();

  /// Pre-sizes the heap and the slot pool for `events` concurrent events so
  /// the steady state never reallocates.
  void reserve(std::size_t events);

  /// Slots currently allocated in the pool (capacity diagnostics).
  std::size_t slot_count() const noexcept { return slot_count_; }

  /// Dead records (left behind by cancel()) swept from the lane heads over
  /// the queue's lifetime; clear() discards records without counting them.
  /// A queue run to empty has swept one record per cancelled event.
  std::uint64_t tombstones_swept() const noexcept { return tombstones_swept_; }

  /// Lifetime schedule counts: records pushed onto the heap lane (a
  /// diverted schedule_monotone() call counts here), records appended to
  /// the FIFO lane, and schedule_monotone() calls diverted to the heap
  /// because their time fell below the ring's tail. Every scheduled event
  /// either runs or is cancelled, so a queue run to empty without clear()
  /// has scheduled_heap() + scheduled_fifo() == events dispatched +
  /// tombstones_swept().
  std::uint64_t scheduled_heap() const noexcept { return scheduled_heap_; }
  std::uint64_t scheduled_fifo() const noexcept { return scheduled_fifo_; }
  std::uint64_t fifo_diverted() const noexcept { return fifo_diverted_; }
  /// Most events ever pending at once.
  std::size_t peak_size() const noexcept { return peak_size_; }

  /// Monotone bijection from double event times to unsigned keys:
  /// a < b  <=>  time_to_key(a) < time_to_key(b) for all ordered (non-NaN)
  /// doubles. Positive values map above the sign-bit midpoint unchanged;
  /// negative values are bit-complemented to reverse their descending
  /// two's-complement-pattern order.
  static constexpr std::uint64_t time_to_key(Time at) noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(at);
    return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
  }
  static constexpr Time key_to_time(std::uint64_t key) noexcept {
    const std::uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
    return std::bit_cast<Time>(bits);
  }

 private:
  static constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  // The pool is stored in fixed 1024-slot chunks: growing it allocates a new
  // chunk without moving existing slots (a vector would run every stored
  // callback's move constructor on each reallocation), and slot addresses
  // stay stable for the lifetime of the queue.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct Slot {
    Callback action;
    std::uint64_t aux = 0;  // current occupant's identity; 0 = free
    std::uint32_t next_free = kNilSlot;
    // Which lane holds the occupant's record (0 heap, 1 fifo): cancelling
    // charges the tombstone to the right lane's counter, so pops only probe
    // a lane's head when that lane actually carries dead records.
    std::uint8_t lane = 0;
  };

  struct HeapEntry {
    std::uint64_t key;  // time_to_key(at)
    std::uint64_t aux;  // {seq:40, slot:24}; seq compares in the high bits

    // (time, seq) lexicographic order: seq is unique, so comparing the aux
    // words on key ties is exactly the insertion-order tie-break. The
    // 128-bit composite compiles to a branchless cmp/sbb pair — heap-order
    // comparisons on random delays are near-coinflips, so dodging the
    // branch predictor is worth more than the extra word of arithmetic.
    bool precedes(const HeapEntry& other) const noexcept {
#if defined(__SIZEOF_INT128__)
      const auto mine =
          (static_cast<unsigned __int128>(key) << 64) | aux;
      const auto theirs =
          (static_cast<unsigned __int128>(other.key) << 64) | other.aux;
      return mine < theirs;
#else
      if (key != other.key) return key < other.key;
      return aux < other.aux;
#endif
    }
  };

  Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Slot& slot_at(std::uint32_t index) const noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  static constexpr std::uint32_t aux_slot(std::uint64_t aux) noexcept {
    return static_cast<std::uint32_t>(aux & (kMaxSlots - 1));
  }

  void note_scheduled() noexcept {
    if (++live_count_ > peak_size_) peak_size_ = live_count_;
  }
  std::uint64_t next_aux(std::uint32_t slot);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  // Scope guard for dispatch_head: frees the dispatched slot when the
  // callback returns or throws (its aux is already 0, so only the action
  // reset and the free-list push remain), then sweeps any tombstone the
  // callback's cancels left at a lane head.
  struct FinishDispatch {
    EventQueue& queue;
    std::uint32_t slot;
    ~FinishDispatch() {
      Slot& s = queue.slot_at(slot);
      s.action = Callback{};
      s.next_free = queue.free_head_;
      queue.free_head_ = slot;
      queue.drop_leading_tombstones();
    }
  };
  bool entry_live(const HeapEntry& entry) const noexcept {
    return slot_at(aux_slot(entry.aux)).aux == entry.aux;
  }

  void heap_push(HeapEntry entry);
  void heap_pop_front() noexcept;
  void drop_leading_tombstones() noexcept;

  const HeapEntry& fifo_front() const noexcept { return fifo_[fifo_head_]; }
  void fifo_pop_front() noexcept {
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    if (--fifo_size_ == 0) fifo_head_ = 0;
  }
  void fifo_push(HeapEntry entry) {
    if (fifo_size_ == fifo_.size()) fifo_grow();
    fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = entry;
    ++fifo_size_;
  }
  void fifo_grow();

  // 4-ary implicit min-heap on (key, aux) — i.e. on (time, seq). Compared to
  // a binary heap this halves the levels a pop's sift-down walks (the
  // pop-heavy hot path), and four 16-byte entries are exactly one cache
  // line.
  std::vector<HeapEntry> heap_;
  // Sorted power-of-two ring for schedule_monotone records. Sortedness is an
  // invariant (appends below the tail key divert to the heap), so the lane
  // needs no sifting: the head is always its minimum, and only the head and
  // its successor can ever share the overall minimum key.
  std::vector<HeapEntry> fifo_;
  std::size_t fifo_head_ = 0;  // masked index of the ring's front
  std::size_t fifo_size_ = 0;
  std::uint64_t fifo_tail_key_ = 0;  // key of the most recent append
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out at least once
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t scheduled_heap_ = 0;
  std::uint64_t scheduled_fifo_ = 0;
  std::uint64_t fifo_diverted_ = 0;
  std::uint64_t tombstones_swept_ = 0;
  // Dead (cancelled) records still physically present per lane.
  // Zero means pops can skip that lane's head-liveness probe outright —
  // the common case for the fifo lane, whose link-arrival events are never
  // cancelled in practice.
  std::size_t heap_tomb_ = 0;
  std::size_t fifo_tomb_ = 0;
};

}  // namespace tempriv::sim
