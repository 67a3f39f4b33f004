#include "sim/event_queue.h"

#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

namespace tempriv::sim {

void EventQueue::throw_unreserved() {
  throw std::invalid_argument("EventQueue: sequence number never reserved");
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = heap_pos_[slot];
#if defined(__GNUC__) || defined(__clang__)
    // Warm the next free slot's line for the next schedule() call.
    if (free_head_ != kNilSlot) __builtin_prefetch(&slot_at(free_head_), 1);
#endif
    return slot;
  }
  if (slot_count_ == kMaxSlots) {
    throw std::length_error("EventQueue: slot pool exhausted");
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    heap_pos_.resize(chunks_.size() * kChunkSize);
  }
  return slot_count_++;
}

EventId EventQueue::reschedule(EventId id, Time at, std::uint64_t seq) {
  const std::uint32_t slot = aux_slot(id.value());
  const std::uint32_t pos = slot < slot_count_ ? heap_pos_[slot] : 0;
  // An invalid id (0) matches no record: every sequence number is >= 1.
  if (slot >= slot_count_ || pos >= heap_.size() ||
      heap_[pos].aux != id.value()) {
    throw std::invalid_argument(
        "EventQueue::reschedule: not a pending heap-lane event");
  }
  if (seq == 0 || seq >= next_seq_) throw_unreserved();
  const std::uint64_t aux = make_aux(seq, slot);
  heap_sift(pos, HeapEntry{time_to_key(at), aux});
  ++rekeys_;
  return EventId(aux);
}

EventId EventQueue::rearm(Time at, std::uint64_t seq) {
  if (running_ == kNilSlot) {
    throw std::logic_error("EventQueue::rearm: no callback is running");
  }
  if (seq == 0 || seq >= next_seq_) throw_unreserved();
  const std::uint64_t aux = make_aux(seq, running_);
  running_ = kNilSlot;  // the dispatch keeps the slot
  heap_push(HeapEntry{time_to_key(at), aux});
  ++scheduled_heap_;
  note_scheduled();
  return EventId(aux);
}

// Hole-based: parents (or children) move into the hole one level at a time
// and the entry is written once at its final position, never swapped. At
// most one direction actually moves; a push starts at a leaf, so it only
// ever moves up.
void EventQueue::heap_sift(std::size_t pos, HeapEntry entry) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entry.precedes(heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (heap_[c].precedes(heap_[best])) best = c;
    }
    if (!heap_[best].precedes(entry)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, entry);
}

// Removes the root, bottom-up (Wegener): descend along minimum children to
// a leaf unconditionally — the displaced back element almost always belongs
// near the leaves, so comparing against it at every level is wasted work —
// then bubble it up from the leaf hole the few (usually zero) levels it
// deserves. The resulting layout can differ from a classic sift-down, but
// pop order is a property of the (key, aux) multiset — a total order with
// unique aux — so execution order is unchanged.
void EventQueue::heap_pop_front() noexcept {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t pos = 0;
  while (true) {
    const std::size_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
#if defined(__GNUC__) || defined(__clang__)
    // Start the grandchildren of the likely path toward memory; the min
    // scan below gives the prefetch one level of lead time.
    if (4 * first_child + 1 < n) __builtin_prefetch(&heap_[4 * first_child + 1]);
#endif
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (heap_[c].precedes(heap_[best])) best = c;
    }
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_sift(pos, last);  // a leaf hole: only the upward pass can move
}

void EventQueue::HeapStore::grow(std::size_t min_entries) {
  if (min_entries > kMaxSlots) {
    // One record per pool slot at most; refuse before the sizes overflow.
    throw std::length_error("EventQueue: heap storage beyond the slot limit");
  }
  // Blocks are whole lines of four entries: kPad of the first line sit in
  // front of entry 0, so a block of 4m entries holds 4m - kPad.
  std::size_t block = capacity_ == 0 ? 64 : 2 * (capacity_ + kPad);
  while (block - kPad < min_entries) block *= 2;
  auto* base = static_cast<HeapEntry*>(::operator new(
      block * sizeof(HeapEntry), std::align_val_t{kLine}));
  HeapEntry* grown = base + kPad;
  if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(HeapEntry));
  release();
  data_ = grown;
  capacity_ = block - kPad;
}

void EventQueue::HeapStore::release() noexcept {
  if (data_ != nullptr) {
    ::operator delete(data_ - kPad, std::align_val_t{kLine});
    data_ = nullptr;
  }
}

void EventQueue::fifo_grow() {
  const std::size_t cap = fifo_.empty() ? 64 : fifo_.size() * 2;
  std::vector<HeapEntry> grown(cap);
  for (std::size_t i = 0; i < fifo_size_; ++i) {
    grown[i] = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
  }
  fifo_ = std::move(grown);
  fifo_head_ = 0;
}

void EventQueue::clear() {
  heap_.clear();
  running_ = kNilSlot;  // its slot is freed below with the rest
  fifo_head_ = 0;
  fifo_size_ = 0;
  free_head_ = kNilSlot;
  for (std::uint32_t i = slot_count_; i-- > 0;) {
    slot_at(i).action = Callback{};
    release_slot(i);
  }
  live_count_ = 0;
}

void EventQueue::reserve(std::size_t events) {
  heap_.reserve(events);
  while (fifo_.size() < events) fifo_grow();
  const std::size_t chunks =
      (events + kChunkSize - 1) / kChunkSize;
  while (chunks_.size() < chunks) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  heap_pos_.resize(chunks_.size() * kChunkSize);
}

}  // namespace tempriv::sim
