#include "core/delay_buffer.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace tempriv::core {

namespace {

/// Heap order: the policy's victim at the root, admission order (first
/// admitted wins) breaking release-time ties — exactly the element a
/// first-strict-win linear scan over admission order selects.
template <typename Node>
bool heap_precedes(const Node& a, const Node& b) noexcept {
  if (a.key != b.key) return a.key < b.key;
  return a.admit_seq < b.admit_seq;
}

}  // namespace

DelayBuffer::DelayBuffer(std::shared_ptr<const DelayDistribution> delay,
                         VictimPolicy policy)
    : DelayBuffer(QueueConfig{std::move(delay), policy, kUnbounded}) {}

DelayBuffer::DelayBuffer(QueueConfig config) {
  add_queue(add_config(std::move(config)));
}

std::uint32_t DelayBuffer::add_config(QueueConfig config) {
  if (!config.delay) {
    throw std::invalid_argument("DelayBuffer: null delay distribution");
  }
  if (config.capacity == 0) {
    throw std::invalid_argument("DelayBuffer: capacity must be >= 1");
  }
  configs_.push_back(std::move(config));
  return static_cast<std::uint32_t>(configs_.size() - 1);
}

DelayBuffer::QueueId DelayBuffer::add_queue(std::uint32_t config) {
  if (config >= configs_.size()) {
    throw std::out_of_range("DelayBuffer::add_queue: unknown config");
  }
  Queue queue;
  queue.config = config;
  queues_.push_back(queue);
  return static_cast<QueueId>(queues_.size() - 1);
}

std::size_t DelayBuffer::memory_bytes() const noexcept {
  return configs_.capacity() * sizeof(QueueConfig) +
         queues_.capacity() * sizeof(Queue) +
         slots_.capacity() * sizeof(Slot) +
         blocks_.capacity() * sizeof(HeapNode);
}

std::vector<DelayBuffer::Held> DelayBuffer::snapshot(QueueId queue) const {
  const Queue& q = queues_.at(queue);
  std::vector<Held> held;
  held.reserve(q.count);
  for (std::uint32_t slot = q.head; slot != kNil; slot = slots_[slot].next) {
    held.push_back(slots_[slot].held);
  }
  return held;
}

void DelayBuffer::reserve(std::size_t packets) { slots_.reserve(packets); }

bool DelayBuffer::indexed(const Queue& q) const noexcept {
  const std::optional<VictimPolicy>& victim = configs_[q.config].victim;
  return victim == VictimPolicy::kShortestRemaining ||
         victim == VictimPolicy::kLongestRemaining;
}

std::uint32_t DelayBuffer::acquire_slot() {
  if (free_slot_ != kNil) {
    const std::uint32_t slot = free_slot_;
    free_slot_ = slots_[slot].next;
    return slot;
  }
  if (slots_.size() >= kNil) {
    throw std::length_error("DelayBuffer: slot slab full");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void DelayBuffer::link_back(Queue& q, std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.prev = q.tail;
  s.next = kNil;
  if (q.tail != kNil) {
    slots_[q.tail].next = slot;
  } else {
    q.head = slot;
  }
  q.tail = slot;
}

void DelayBuffer::unlink(Queue& q, std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    q.head = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    q.tail = s.prev;
  }
  s.prev = s.next = kNil;
}

std::uint32_t DelayBuffer::acquire_block(std::uint8_t block_class) {
  std::uint32_t& free_head = free_block_[block_class];
  if (free_head != kNil) {
    const std::uint32_t block = free_head;
    free_head = blocks_[block].slot;
    return block;
  }
  const std::size_t nodes = std::size_t{1} << block_class;
  if (blocks_.size() + nodes >= kNil) {
    throw std::length_error("DelayBuffer: victim arena full");
  }
  const auto block = static_cast<std::uint32_t>(blocks_.size());
  blocks_.resize(blocks_.size() + nodes);
  return block;
}

void DelayBuffer::release_block(std::uint32_t block,
                                std::uint8_t block_class) noexcept {
  blocks_[block].slot = free_block_[block_class];
  free_block_[block_class] = block;
}

void DelayBuffer::ensure_block_room(Queue& q) {
  if (q.block == kNil) {
    q.block_class = 0;
    q.block = acquire_block(0);
  } else if (q.count == (std::uint32_t{1} << q.block_class)) {
    const auto bigger = static_cast<std::uint8_t>(q.block_class + 1);
    if (bigger >= kClasses) {
      throw std::length_error("DelayBuffer: victim block too large");
    }
    const std::uint32_t block = acquire_block(bigger);  // may move blocks_
    std::copy_n(blocks_.data() + q.block, q.count, blocks_.data() + block);
    release_block(q.block, q.block_class);
    q.block = block;
    q.block_class = bigger;
  }
}

void DelayBuffer::heap_push(Queue& q, std::uint32_t slot,
                            std::uint64_t admit_seq) {
  ensure_block_room(q);
  const double release_time = slots_[slot].held.release_time;
  HeapNode node;
  node.key = configs_[q.config].victim == VictimPolicy::kLongestRemaining
                 ? -release_time
                 : release_time;
  node.admit_seq = admit_seq;
  node.slot = slot;
  heap_sift({blocks_.data() + q.block, q.count + 1}, q.count, node);
}

void DelayBuffer::heap_sift(std::span<HeapNode> heap, std::uint32_t pos,
                            HeapNode node) noexcept {
  // Up first: move parents down into the hole while they order after the
  // node (one node move per level, never a swap).
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!heap_precedes(node, heap[parent])) break;
    heap[pos] = heap[parent];
    slots_[heap[pos].slot].heap_pos = pos;
    pos = parent;
  }
  // Then down: pull the smaller child up into the hole while it orders
  // before the node. At most one direction actually moves.
  const auto n = static_cast<std::uint32_t>(heap.size());
  while (true) {
    const std::uint32_t left = 2 * pos + 1;
    if (left >= n) break;
    const std::uint32_t right = left + 1;
    std::uint32_t best = left;
    if (right < n && heap_precedes(heap[right], heap[left])) best = right;
    if (!heap_precedes(heap[best], node)) break;
    heap[pos] = heap[best];
    slots_[heap[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap[pos] = node;
  slots_[node.slot].heap_pos = pos;
}

void DelayBuffer::heap_remove(Queue& q, std::uint32_t slot) noexcept {
  const std::uint32_t pos = slots_[slot].heap_pos;
  slots_[slot].heap_pos = kNil;
  const std::uint32_t last = q.count - 1;
  if (pos != last) {
    HeapNode* heap = blocks_.data() + q.block;
    heap_sift({heap, last}, pos, heap[last]);
  }
}

void DelayBuffer::admit(QueueId queue, net::Packet&& packet,
                        net::NodeContext& ctx) {
  const Queue& q = queues_[queue];
  admit_with_delay(queue, std::move(packet), ctx,
                   configs_[q.config].delay->sample(ctx.rng()));
}

void DelayBuffer::admit_with_delay(QueueId queue, net::Packet&& packet,
                                   net::NodeContext& ctx, double delay) {
  if (delay < 0.0) {
    throw std::invalid_argument("DelayBuffer::admit_with_delay: negative delay");
  }
  const double now = ctx.simulator().now();
  const std::uint64_t uid = packet.uid;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.held.packet = std::move(packet);
  s.held.enqueue_time = now;
  s.held.release_time = now + delay;
  s.queue = queue;
  s.held.release_event = ctx.simulator().schedule_after(
      delay, [this, slot, uid, &ctx] { release(slot, uid, ctx); });
  Queue& q = queues_[queue];
  link_back(q, slot);
  const std::uint64_t admit_seq = next_admit_seq_++;
  if (indexed(q)) heap_push(q, slot, admit_seq);
  ++q.count;
  ++live_;
  ++occupancy_[std::min<std::size_t>(std::bit_width(q.count),
                                     kOccupancyBuckets - 1)];
  peak_occupancy_ = std::max(peak_occupancy_, q.count);
}

DelayBuffer::Admission DelayBuffer::offer(QueueId queue, net::Packet&& packet,
                                          net::NodeContext& ctx,
                                          const DelayDistribution* delay) {
  const QueueConfig& config = configs_[queues_[queue].config];
  Admission outcome = Admission::kAdmitted;
  if (queues_[queue].count >= config.capacity) {
    if (!config.victim) {
      return Admission::kDropped;  // the packet is destroyed
    }
    ctx.transmit(preempt(queue, ctx));
    outcome = Admission::kPreempted;
  }
  if (delay == nullptr) delay = config.delay.get();
  admit_with_delay(queue, std::move(packet), ctx, delay->sample(ctx.rng()));
  return outcome;
}

std::uint32_t DelayBuffer::victim_slot(const Queue& q,
                                       sim::RandomStream& rng) const {
  switch (*configs_[q.config].victim) {
    case VictimPolicy::kShortestRemaining:
    case VictimPolicy::kLongestRemaining:
      return blocks_[q.block].slot;
    case VictimPolicy::kOldest:
      return q.head;
    case VictimPolicy::kRandom: {
      // Same draw as a linear scan: a uniform index into the admission
      // order, then a walk to that position.
      auto index = static_cast<std::size_t>(rng.uniform_index(q.count));
      std::uint32_t slot = q.head;
      while (index-- > 0) slot = slots_[slot].next;
      return slot;
    }
  }
  throw std::logic_error("DelayBuffer::victim_slot: unknown policy");
}

net::Packet DelayBuffer::extract(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Queue& q = queues_[s.queue];
  net::Packet packet = std::move(s.held.packet);
  unlink(q, slot);
  if (s.heap_pos != kNil) heap_remove(q, slot);
  s.queue = kNil;
  s.next = free_slot_;
  free_slot_ = slot;
  --live_;
  if (--q.count == 0 && q.block != kNil) {
    release_block(q.block, q.block_class);
    q.block = kNil;
  }
  return packet;
}

net::Packet DelayBuffer::preempt(QueueId queue, net::NodeContext& ctx) {
  const Queue& q = queues_[queue];
  if (q.count == 0) {
    throw std::logic_error("DelayBuffer::preempt: empty buffer");
  }
  const std::optional<VictimPolicy>& victim = configs_[q.config].victim;
  if (!victim) {
    throw std::logic_error("DelayBuffer::preempt: queue never preempts");
  }
  const std::uint32_t slot = victim_slot(q, ctx.rng());
  // The victim's release is still pending; it must never fire.
  ctx.simulator().cancel(slots_[slot].held.release_event);
  return extract(slot);
}

void DelayBuffer::release(std::uint32_t slot, std::uint64_t uid,
                          net::NodeContext& ctx) {
  // Defensive: preempt() cancels the release event, so a fired event
  // whose slot was recycled (or freed) indicates a kernel bug — skip rather
  // than transmit the wrong packet.
  if (slot >= slots_.size() || slots_[slot].queue == kNil ||
      slots_[slot].held.packet.uid != uid) {
    return;
  }
  ctx.transmit(extract(slot));
}

bool DelayBuffer::consistent() const {
  std::vector<std::uint32_t> owned(queues_.size(), 0);
  std::size_t live_slots = 0;
  for (const Slot& s : slots_) {
    if (s.queue == kNil) continue;
    if (s.queue >= queues_.size()) return false;
    ++owned[s.queue];
    ++live_slots;
  }
  std::size_t free_slots = 0;
  for (std::uint32_t slot = free_slot_; slot != kNil; slot = slots_[slot].next) {
    if (slots_[slot].queue != kNil || ++free_slots > slots_.size()) return false;
  }
  std::size_t queued = 0;
  for (QueueId id = 0; id < queues_.size(); ++id) {
    const Queue& q = queues_[id];
    queued += q.count;
    if (owned[id] != q.count) return false;
    std::uint32_t walked = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t slot = q.head; slot != kNil; slot = slots_[slot].next) {
      const Slot& s = slots_[slot];
      if (s.queue != id || s.prev != prev || ++walked > q.count) return false;
      prev = slot;
    }
    if (walked != q.count || q.tail != prev) return false;
    if (!indexed(q) || q.count == 0) {
      if (q.block != kNil) return false;
      continue;
    }
    if (q.block == kNil || q.count > (std::uint32_t{1} << q.block_class)) {
      return false;
    }
    const HeapNode* heap = blocks_.data() + q.block;
    for (std::uint32_t pos = 0; pos < q.count; ++pos) {
      const Slot& s = slots_[heap[pos].slot];
      if (s.queue != id || s.heap_pos != pos) return false;
      if (pos > 0 && heap_precedes(heap[pos], heap[(pos - 1) / 2])) return false;
    }
  }
  return live_slots == live_ && queued == live_ &&
         free_slots == slots_.size() - live_;
}

const char* to_string(VictimPolicy policy) noexcept {
  switch (policy) {
    case VictimPolicy::kShortestRemaining:
      return "shortest-remaining";
    case VictimPolicy::kLongestRemaining:
      return "longest-remaining";
    case VictimPolicy::kRandom:
      return "random";
    case VictimPolicy::kOldest:
      return "oldest";
  }
  return "unknown";
}

}  // namespace tempriv::core
