#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace tempriv::sim {

/// Opaque handle to a scheduled event; used to re-key it later.
/// Value 0 is reserved for "invalid".
///
/// Internally the value is the event's "aux" word: bits [0,24) hold the
/// pool slot index and bits [24,64) the event's sequence number. No two
/// pending events share an aux word, so a handle names at most one of them.
class EventId {
 public:
  constexpr EventId() noexcept = default;
  constexpr explicit EventId(std::uint64_t value) noexcept : value_(value) {}

  constexpr std::uint64_t value() const noexcept { return value_; }

  friend constexpr bool operator==(EventId, EventId) noexcept = default;

 private:
  std::uint64_t value_ = 0;
};

/// Priority queue of timed callbacks with O(log n) insert, pop and in-place
/// re-key. Ties in time are broken by sequence number — insertion order,
/// unless the caller reserved the number earlier — so runs are fully
/// deterministic.
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
///  - EventId is the aux word itself, and a dense per-slot heap position,
///    kept current by every heap move, lets reschedule() re-site a record
///    in place: a record leaves either lane only by running.
/// In steady state (pool and heap at capacity) schedule/reschedule/dispatch
/// perform zero heap allocations (see the allocation-counter test and
/// microbench).
class EventQueue {
 public:
  /// Inline capture budget for scheduled callbacks: enough for the largest
  /// hot-path lambda in the simulator (DelayBuffer's release closure); a
  /// bigger callable still works but falls back to one heap allocation.
  using Callback = InlineCallback<48>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts `action` to fire at time `at` with the next sequence number.
  /// Returns a handle for reschedule(). Throws std::length_error if the
  /// queue would exceed 2^24 concurrent events or 2^40 sequence numbers
  /// (far beyond any simulated workload).
  template <class F>
  EventId schedule(Time at, F&& action) {
    return schedule(at, reserve_seq(), std::forward<F>(action));
  }

  /// Takes the next sequence number without scheduling anything. An event
  /// later keyed on it (schedule() or reschedule()) ties among equal-time
  /// events exactly as if it had been scheduled now.
  std::uint64_t reserve_seq() {
    if (next_seq_ >= (1ull << 40)) {
      throw std::length_error("EventQueue: sequence number space exhausted");
    }
    return next_seq_++;
  }

  /// schedule() with a number from reserve_seq(), which the caller keeps
  /// on at most one pending event at a time. Throws std::invalid_argument
  /// for a number reserve_seq() never returned.
  template <class F>
  EventId schedule(Time at, std::uint64_t seq, F&& action) {
    if (seq == 0 || seq >= next_seq_) [[unlikely]] throw_unreserved();
    const std::uint32_t slot = acquire_slot();
    slot_at(slot).action.emplace(std::forward<F>(action));
    const std::uint64_t aux = make_aux(seq, slot);
    heap_push(HeapEntry{time_to_key(at), aux});
    ++scheduled_heap_;
    note_scheduled();
    return EventId(aux);
  }

  /// Moves a pending heap-lane event to (`at`, reserved `seq`) in place,
  /// callback untouched, in O(log n); returns its new handle. Throws
  /// std::invalid_argument if `id` is not a pending heap-lane event
  /// (FIFO-lane records are never re-keyed) or `seq` was never reserved.
  EventId reschedule(EventId id, Time at, std::uint64_t seq);

  /// From a running callback, at most once: makes the running event pending
  /// again at (`at`, reserved `seq`) — its slot and callback stay — and
  /// returns its new handle. Throws std::logic_error outside a callback.
  EventId rearm(Time at, std::uint64_t seq);

  /// schedule() for event streams whose times arrive in non-decreasing
  /// order — constant-latency link arrivals scheduled from a non-decreasing
  /// simulation clock being the canonical case. Such records bypass the
  /// heap entirely: they append to a sorted FIFO ring (O(1) insert, O(1)
  /// pop, one 16-byte slot each) that dispatch_head() merges with the heap
  /// by the same (time, seq) order, so execution order — and therefore
  /// every simulation result — is bit-identical to scheduling through the
  /// heap. Monotonicity is checked, not trusted: a time below the ring's
  /// tail simply routes through the heap lane, keeping correctness
  /// unconditional.
  template <class F>
  EventId schedule_monotone(Time at, F&& action) {
    const std::uint64_t key = time_to_key(at);
    if (fifo_size_ != 0 && key < fifo_tail_key_) {
      ++fifo_diverted_;
      return schedule(at, std::forward<F>(action));
    }
    const std::uint32_t slot = acquire_slot();
    slot_at(slot).action.emplace(std::forward<F>(action));
    const std::uint64_t aux = make_aux(reserve_seq(), slot);
    fifo_push(HeapEntry{key, aux});
    fifo_tail_key_ = key;
    ++scheduled_fifo_;
    note_scheduled();
    return EventId(aux);
  }

  /// Runs the earliest pending event — (time, seq) order across both lanes —
  /// in place in its pool slot: invokes
  /// `dispatch(Time at, EventId id, Callback& action)` with the stored
  /// callback, releases the slot afterwards (even if `dispatch` throws)
  /// unless the callback re-armed it, and returns true; returns false,
  /// touching nothing, if the queue is empty.
  /// The event's handle dies before `dispatch` runs. The callback may freely
  /// schedule or re-key other events while executing — pool chunks never
  /// move, and the dispatched slot rejoins the free list only after
  /// `dispatch` returns. Equal-time events run one call each, in insertion
  /// order; an event scheduled from a callback at the current time takes a
  /// later sequence number, so it runs after every event already pending
  /// at that time.
  template <class Dispatch>
  bool dispatch_head(Dispatch&& dispatch) {
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
#if defined(__GNUC__) || defined(__clang__)
      // The ring's new head is often the next event to run: warm its slot.
      if (fifo_size_ != 0) {
        __builtin_prefetch(&slot_at(aux_slot(fifo_front().aux)));
      }
#endif
    } else {
      heap_pop_front();
#if defined(__GNUC__) || defined(__clang__)
      // The new heap head is usually the next event to run: warm its slot.
      if (!heap_.empty()) {
        __builtin_prefetch(&slot_at(aux_slot(heap_.front().aux)));
      }
#endif
    }
    --live_count_;
    running_ = slot;
    FinishDispatch finisher{*this, slot};
    dispatch(key_to_time(top.key), EventId(top.aux), slot_at(slot).action);
    return true;
  }

  /// Time of the earliest pending event, or kTimeInfinity if empty.
  Time next_time() const noexcept {
    // The earliest record is the smaller of the two lane heads.
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

  /// Number of pending events.
  std::size_t size() const noexcept { return live_count_; }
  bool empty() const noexcept { return live_count_ == 0; }

  /// Drops every pending event and frees all pool slots; handles issued
  /// before clear() name nothing. Capacity is retained.
  void clear();

  /// Pre-sizes the heap and the slot pool for `events` concurrent events so
  /// the steady state never reallocates. Throws std::length_error beyond
  /// the 2^24-event limit.
  void reserve(std::size_t events);

  /// Slots currently allocated in the pool (capacity diagnostics).
  std::size_t slot_count() const noexcept { return slot_count_; }

  /// Heap-lane storage diagnostics: entries the heap holds before it next
  /// grows, and the address of entry 1 — the root's first child, 64-byte
  /// aligned so that each 4-ary child group is one cache line — or nullptr
  /// while the heap has no storage.
  std::size_t heap_capacity() const noexcept { return heap_.capacity_; }
  const void* heap_first_child() const noexcept {
    return heap_.capacity_ == 0 ? nullptr : heap_.data_ + 1;
  }

  /// Lifetime schedule counts: records pushed onto the heap lane (a
  /// diverted schedule_monotone() call counts here), records appended to
  /// the FIFO lane, and schedule_monotone() calls diverted to the heap
  /// because their time fell below the ring's tail. Every scheduled event
  /// runs, so a queue run to empty without clear() has scheduled_heap() +
  /// scheduled_fifo() == events dispatched.
  std::uint64_t scheduled_heap() const noexcept { return scheduled_heap_; }
  std::uint64_t scheduled_fifo() const noexcept { return scheduled_fifo_; }
  std::uint64_t fifo_diverted() const noexcept { return fifo_diverted_; }
  /// Lifetime reschedule() calls: heap records re-keyed in place.
  std::uint64_t rekeys() const noexcept { return rekeys_; }
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

  // A handle's identity lives in its heap or ring record, not here: a
  // record that has left both lanes names no event. One slot is exactly one
  // aligned cache line, so the dispatch prefetch fetches all of it; the free
  // list is threaded through heap_pos_, not through the slot.
  struct alignas(64) Slot {
    Callback action;
  };
  static_assert(sizeof(Slot) == 64 && alignof(Slot) == 64);

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
  static_assert(sizeof(HeapEntry) == 16 &&
                std::is_trivially_copyable_v<HeapEntry>);

  Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Slot& slot_at(std::uint32_t index) const noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  static constexpr std::uint32_t aux_slot(std::uint64_t aux) noexcept {
    return static_cast<std::uint32_t>(aux & (kMaxSlots - 1));
  }
  static constexpr std::uint64_t make_aux(std::uint64_t seq,
                                          std::uint32_t slot) noexcept {
    return (seq << kSlotBits) | slot;
  }

  void note_scheduled() noexcept {
    if (++live_count_ > peak_size_) peak_size_ = live_count_;
  }
  [[noreturn]] static void throw_unreserved();
  std::uint32_t acquire_slot();
  /// Pushes a slot whose callback is already empty onto the free list.
  void release_slot(std::uint32_t slot) noexcept {
    heap_pos_[slot] = free_head_;
    free_head_ = slot;
  }

  // Scope guard for dispatch_head: frees the dispatched slot when the
  // callback returns or throws, unless the callback re-armed it.
  struct FinishDispatch {
    EventQueue& queue;
    std::uint32_t slot;
    ~FinishDispatch() {
      if (queue.running_ != slot) return;  // re-armed
      queue.running_ = kNilSlot;
      queue.slot_at(slot).action = Callback{};
      queue.release_slot(slot);
    }
  };

  void heap_push(HeapEntry entry) {
    heap_.push_back(entry);
    heap_sift(heap_.size() - 1, entry);
  }
  void heap_pop_front() noexcept;
  /// Writes `entry` at heap position `pos` and records the position.
  void heap_place(std::size_t pos, HeapEntry entry) noexcept {
    heap_[pos] = entry;
    heap_pos_[aux_slot(entry.aux)] = static_cast<std::uint32_t>(pos);
  }
  /// Re-sites `entry` starting at hole `pos`, whichever direction it must
  /// move; writes it once at its final position.
  void heap_sift(std::size_t pos, HeapEntry entry) noexcept;

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

  // Growable storage for the heap: entry i sits at base + 3 + i of a
  // 64-byte-aligned block, so entry 1 starts a cache line and every 4-ary
  // child group 4p+1..4p+4 fills exactly one line. Entries are trivially
  // copyable, so growth is one memcpy into a block twice the size.
  class HeapStore {
   public:
    HeapStore() = default;
    HeapStore(const HeapStore&) = delete;
    HeapStore& operator=(const HeapStore&) = delete;
    ~HeapStore() { release(); }

    HeapEntry& operator[](std::size_t i) noexcept { return data_[i]; }
    const HeapEntry& front() const noexcept { return data_[0]; }
    const HeapEntry& back() const noexcept { return data_[size_ - 1]; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    void push_back(HeapEntry entry) {
      if (size_ == capacity_) grow(size_ + 1);
      data_[size_++] = entry;
    }
    void pop_back() noexcept { --size_; }
    void clear() noexcept { size_ = 0; }
    void reserve(std::size_t entries) {
      if (entries > capacity_) grow(entries);
    }

   private:
    friend class EventQueue;  // the storage diagnostics read data_, capacity_
    static constexpr std::size_t kPad = 3;  // entries ahead of entry 0
    static constexpr std::size_t kLine = 64;
    void grow(std::size_t min_entries);
    void release() noexcept;

    HeapEntry* data_ = nullptr;  // entry 0: the block's start + kPad
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  // 4-ary implicit min-heap on (key, aux) — i.e. on (time, seq). Compared to
  // a binary heap this halves the levels a pop's sift-down walks (the
  // pop-heavy hot path), and HeapStore keeps each node's four 16-byte
  // children on one cache line, so a level costs one line.
  HeapStore heap_;
  // Per pool slot: where its record sits in heap_ while the slot's event is
  // on the heap lane, and the next free slot (kNilSlot ends the list) while
  // the slot is free — a free slot has no heap position. Dense, one u32 per
  // slot, so a heap move costs one small store and reschedule() one index.
  std::vector<std::uint32_t> heap_pos_;
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
  std::uint32_t running_ = kNilSlot;  // slot whose callback is running
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t scheduled_heap_ = 0;
  std::uint64_t scheduled_fifo_ = 0;
  std::uint64_t fifo_diverted_ = 0;
  std::uint64_t rekeys_ = 0;
};

}  // namespace tempriv::sim
