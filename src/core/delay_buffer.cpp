#include "core/delay_buffer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace tempriv::core {

namespace {

/// Heap order: earliest release at the root, admission order (the reserved
/// sequence number; first admitted wins) breaking release-time ties — the
/// kernel's order, and exactly the shortest-remaining victim a
/// first-strict-win linear scan over admission order selects.
template <typename Node>
bool heap_precedes(const Node& a, const Node& b) noexcept {
  if (a.release != b.release) return a.release < b.release;
  return a.seq < b.seq;
}

}  // namespace

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
         (blocks_.capacity() + scratch_.capacity()) * sizeof(HeapNode);
}

std::vector<DelayBuffer::Held> DelayBuffer::snapshot(QueueId queue) const {
  std::vector<Held> held;
  for (const HeapNode& node : admission_order(queues_.at(queue))) {
    held.push_back({node.packet, node.release});
  }
  return held;
}

std::span<const DelayBuffer::HeapNode> DelayBuffer::admission_order(
    const Queue& q) const {
  if (q.count == 0) return {};
  scratch_.assign(blocks_.data() + q.block, blocks_.data() + q.block + q.count);
  std::sort(scratch_.begin(), scratch_.end(),
            [](const HeapNode& a, const HeapNode& b) { return a.seq < b.seq; });
  return scratch_;
}

std::uint32_t DelayBuffer::acquire_block(std::uint8_t block_class) {
  std::uint32_t& free_head = free_block_[block_class];
  if (free_head != kNil) {
    const std::uint32_t block = free_head;
    free_head = static_cast<std::uint32_t>(blocks_[block].packet.value());
    return block;
  }
  const std::size_t nodes = std::size_t{1} << block_class;
  if (blocks_.size() + nodes >= kNil) {
    throw std::length_error("DelayBuffer: release arena full");
  }
  const auto block = static_cast<std::uint32_t>(blocks_.size());
  blocks_.resize(blocks_.size() + nodes);
  return block;
}

void DelayBuffer::release_block(std::uint32_t block,
                                std::uint8_t block_class) noexcept {
  blocks_[block].packet = net::PacketPool::Handle(free_block_[block_class]);
  free_block_[block_class] = block;
}

void DelayBuffer::ensure_block_room(Queue& q) {
  if (q.block == kNil) {
    q.block_class = 0;
    q.block = acquire_block(0);
  } else if (q.count == (std::uint32_t{1} << q.block_class)) {
    const auto bigger = static_cast<std::uint8_t>(q.block_class + 1);
    if (bigger >= kClasses) {
      throw std::length_error("DelayBuffer: release block too large");
    }
    const std::uint32_t block = acquire_block(bigger);  // may move blocks_
    std::copy_n(blocks_.data() + q.block, q.count, blocks_.data() + block);
    release_block(q.block, q.block_class);
    q.block = block;
    q.block_class = bigger;
  }
}

void DelayBuffer::heap_push(Queue& q, HeapNode node) {
  ensure_block_room(q);
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
    pos = best;
  }
  heap[pos] = node;
}

void DelayBuffer::heap_remove(Queue& q, std::uint32_t pos) noexcept {
  const std::uint32_t last = q.count - 1;
  if (pos != last) {
    HeapNode* heap = blocks_.data() + q.block;
    heap_sift({heap, last}, pos, heap[last]);
  }
}

void DelayBuffer::admit_with_delay(QueueId queue,
                                   net::PacketPool::Handle packet,
                                   net::NodeContext& ctx, double delay) {
  if (!std::isfinite(delay) || delay < 0.0) {
    throw std::invalid_argument(
        "DelayBuffer: delay must be finite and >= 0");
  }
  Queue& q = queues_[queue];
  heap_push(q, {ctx.simulator().now() + delay, ctx.simulator().reserve_seq(),
                packet});
  ++q.count;
  ++live_;
  ++admitted_;
  ++occupancy_[std::min<std::size_t>(std::bit_width(q.count),
                                     kOccupancyBuckets - 1)];
  peak_occupancy_ = std::max(peak_occupancy_, q.count);
}

DelayBuffer::Admission DelayBuffer::offer(QueueId queue,
                                          net::PacketPool::Handle packet,
                                          net::NodeContext& ctx) {
  Queue* q = &queues_[queue];
  const QueueConfig* config = &configs_[q->config];
  // The queue's event is keyed on its root's number (0, never a kernel
  // number, when the queue is empty and has no event).
  const std::uint64_t old_root = q->count != 0 ? blocks_[q->block].seq : 0;
  Admission outcome = Admission::kAdmitted;
  if (q->count >= config->capacity) {
    if (!config->victim) {
      return Admission::kDropped;  // the caller disposes of the packet
    }
    // The queue's event stays pending even if the victim was its root (or
    // its last packet): it is re-keyed on the arrival below.
    ++preempted_;
    ctx.transmit(extract(*q, victim_pos(*q, ctx.rng())));
    // The transmit may have added queues or configurations, moving
    // queues_ and configs_.
    q = &queues_[queue];
    config = &configs_[q->config];
    outcome = Admission::kPreempted;
  }
  admit_with_delay(queue, packet, ctx,
                   config->delay->sample(ctx.rng()));
  const HeapNode& root = blocks_[q->block];
  if (old_root == 0) {
    q->event = ctx.simulator().schedule_at(
        root.release, root.seq,
        [this, queue, &ctx] { release_head(queue, ctx); });
  } else if (root.seq != old_root) {
    q->event = ctx.simulator().reschedule(q->event, root.release, root.seq);
  }
  return outcome;
}

std::uint32_t DelayBuffer::victim_pos(const Queue& q,
                                      sim::RandomStream& rng) const {
  const HeapNode* heap = blocks_.data() + q.block;
  const HeapNode* end = heap + q.count;
  switch (*configs_[q.config].victim) {
    case VictimPolicy::kShortestRemaining:
      return 0;
    case VictimPolicy::kLongestRemaining:
      // A scan of the dense block: the latest release, the earliest
      // admission among equals.
      return static_cast<std::uint32_t>(
          std::max_element(heap, end,
                           [](const HeapNode& a, const HeapNode& b) {
                             return a.release != b.release
                                        ? a.release < b.release
                                        : a.seq > b.seq;
                           }) -
          heap);
    case VictimPolicy::kOldest:
      return static_cast<std::uint32_t>(
          std::min_element(heap, end,
                           [](const HeapNode& a, const HeapNode& b) {
                             return a.seq < b.seq;
                           }) -
          heap);
    case VictimPolicy::kRandom: {
      // Same draw as a linear scan: a uniform index into the admission
      // order, then that node's place in the heap (seqs are unique).
      const std::uint64_t seq =
          admission_order(q)[rng.uniform_index(q.count)].seq;
      return static_cast<std::uint32_t>(
          std::find_if(heap, end,
                       [seq](const HeapNode& n) { return n.seq == seq; }) -
          heap);
    }
  }
  throw std::logic_error("DelayBuffer::victim_pos: unknown policy");
}

net::PacketPool::Handle DelayBuffer::extract(Queue& q, std::uint32_t pos) {
  const net::PacketPool::Handle packet = blocks_[q.block + pos].packet;
  heap_remove(q, pos);
  --live_;
  if (--q.count == 0) {
    release_block(q.block, q.block_class);
    q.block = kNil;
  }
  return packet;
}

void DelayBuffer::release_head(QueueId queue, net::NodeContext& ctx) {
  // The running event was keyed on the root; it re-arms itself for the
  // next root, if any.
  Queue& q = queues_[queue];
  const net::PacketPool::Handle packet = extract(q, 0);
  ++released_;
  if (q.count != 0) {
    const HeapNode& root = blocks_[q.block];
    q.event = ctx.simulator().rearm(root.release, root.seq);
  }
  ctx.transmit(packet);
}

bool DelayBuffer::consistent() const {
  std::vector<std::uint64_t> handles;
  for (const Queue& q : queues_) {
    if (q.count == 0) {
      if (q.block != kNil) return false;
      continue;
    }
    if (q.block == kNil || q.count > (std::uint32_t{1} << q.block_class)) {
      return false;
    }
    const HeapNode* heap = blocks_.data() + q.block;
    for (std::uint32_t pos = 0; pos < q.count; ++pos) {
      if (!heap[pos].packet.valid()) return false;
      handles.push_back(heap[pos].packet.value());
      if (pos > 0 && heap_precedes(heap[pos], heap[(pos - 1) / 2])) return false;
    }
  }
  std::sort(handles.begin(), handles.end());
  return std::adjacent_find(handles.begin(), handles.end()) == handles.end() &&
         handles.size() == live_ && admitted_ == released_ + preempted_ + live_;
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
