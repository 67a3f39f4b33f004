// Proves the event kernel's zero-allocation contract: once the queue's heap
// and slot pool are warm, schedule/reschedule/pop never touch the global
// heap. Lives in its own test binary because it replaces the global
// operator new/delete with counting versions.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/delay_buffer.h"
#include "core/discipline_spec.h"
#include "crypto/payload.h"
#include "net/network.h"
#include "net/packet_pool.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

#include "pop_event.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC flags malloc-backed replacement allocators as mismatched new/delete
// pairs; the pairing is correct here since every path goes through these.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tempriv::sim {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocGuard, WarmScheduleAndPopAllocatesNothing) {
  RandomStream rng(11);
  EventQueue queue;
  queue.reserve(512);
  // Warm-up: visit every reserved slot once so the freelist is populated.
  for (int i = 0; i < 512; ++i) {
    queue.schedule(rng.uniform(0.0, 100.0), [] {});
  }
  while (pop(queue)) {
  }

  double sink = 0.0;
  const std::size_t before = allocations();
  for (int round = 0; round < 20000; ++round) {
    // A capture the size of the simulator's hot-path closures.
    const double at = rng.uniform(0.0, 100.0);
    queue.schedule(at, [&sink, at] { sink += at; });
    if (round % 3 == 0) {
      auto event = pop(queue);
      if (event) event->action();
    }
    while (queue.size() >= 500) {
      auto event = pop(queue);
      if (event) event->action();
    }
  }
  while (auto event = pop(queue)) {
    event->action();
  }
  const std::size_t after = allocations();
  EXPECT_EQ(after - before, 0u) << "event kernel allocated on the hot path";
  EXPECT_GT(sink, 0.0);
}

TEST(AllocGuard, WarmRescheduleAllocatesNothing) {
  // Steady-state schedule (fresh and reserved numbers), in-place re-key and
  // pop on a warm queue.
  RandomStream rng(12);
  EventQueue queue;
  queue.reserve(1024);
  std::vector<EventId> ids;
  ids.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    ids.push_back(queue.schedule(rng.uniform(0.0, 100.0), [] {}));
  }
  while (pop(queue)) {
  }
  ids.clear();
  const std::size_t before = allocations();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(i % 2 == 0
                        ? queue.schedule(rng.uniform(0.0, 100.0), [] {})
                        : queue.schedule(rng.uniform(0.0, 100.0),
                                         queue.reserve_seq(), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      queue.reschedule(ids[i], rng.uniform(0.0, 100.0), queue.reserve_seq());
    }
    while (pop(queue)) {
    }
    ids.clear();
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(queue.rekeys(), 20u * 500u);
}

TEST(AllocGuard, HotPathClosuresFitInline) {
  // The closures the simulator schedules per event must stay within the
  // InlineCallback budget, or every event costs a heap allocation again.
  Simulator* sim = nullptr;
  std::uint64_t remaining = 0;
  // Simulator event-chain shape (pointer + countdown pointer).
  auto chain = [&sim, &remaining] { (void)sim, (void)remaining; };
  // DelayBuffer's per-queue release shape: this + queue id + context
  // reference.
  void* self = nullptr;
  std::uint32_t queue = 0;
  auto release = [self, queue, &remaining] {
    (void)self, (void)queue, (void)remaining;
  };
  EXPECT_TRUE(EventQueue::Callback::fits_inline<decltype(chain)>());
  EXPECT_TRUE(EventQueue::Callback::fits_inline<decltype(release)>());
  // Network link-traversal shape: network pointer + the receiving node's
  // record index + its id + pooled packet handle, 24 bytes. This closure
  // replaced one that captured the whole Packet (which outgrows the inline
  // budget and heap-allocated on every hop).
  net::Network* net = nullptr;
  std::uint32_t next_record = 0;
  net::NodeId next = 0;
  net::PacketPool::Handle handle;
  auto link = [net, next_record, next, handle] {
    (void)net, (void)next_record, (void)next, (void)handle;
  };
  static_assert(sizeof(link) == 24);
  EXPECT_TRUE(EventQueue::Callback::fits_inline<decltype(link)>());
}

TEST(AllocGuard, WarmForwardedPacketAllocatesNothing) {
  // The end-to-end acceptance bar for the zero-allocation packet path:
  // sealing a payload, injecting it, and forwarding it across every hop of
  // a warm network must not touch the heap — with immediate forwarding
  // (every packet transits every layer: seal, originate, pool, event
  // kernel, per-hop header updates, sink delivery) and no tracer attached.
  Simulator simulator;
  constexpr std::size_t kHops = 16;
  net::Network network(simulator, net::Topology::line(kHops + 1),
                       core::DisciplineSpec::immediate(), {}, RandomStream(21));
  network.reserve(8);
  simulator.reserve(64);
  const crypto::PayloadCodec codec(
      crypto::Speck64_128::Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 16});
  std::uint32_t seq = 0;
  auto send_one = [&] {
    network.originate(0, codec.seal({1.0, seq, simulator.now()}, 0));
    ++seq;
    simulator.run();
  };
  // Warm-up: populate the pool slots, event-queue slots, and sink path.
  for (int i = 0; i < 8; ++i) send_one();

  const std::size_t before = allocations();
  for (int round = 0; round < 2000; ++round) send_one();
  EXPECT_EQ(allocations() - before, 0u)
      << "packet path allocated while sealing/forwarding a packet";
  EXPECT_EQ(network.packets_delivered(), 2008u);
}

TEST(AllocGuard, WarmDelayedForwardingAllocatesNothing) {
  // Same bar for the paper's actual configuration: RCAD disciplines delay
  // and preempt inside their buffers on the way to the sink.
  Simulator simulator;
  net::Network network(simulator, net::Topology::line(6),
                       core::DisciplineSpec::rcad_exponential(
                           5.0, 8, core::VictimPolicy::kShortestRemaining),
                       {}, RandomStream(22));
  // The pool holds every live packet: up to 5 buffers of k = 8, plus the
  // packets on links.
  network.reserve(5 * 8 + 16);
  simulator.reserve(256);
  const crypto::PayloadCodec codec(
      crypto::Speck64_128::Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 16});
  RandomStream rng(23);
  std::uint32_t seq = 0;
  // Warm-up: a first wave fills every buffer slot at least once.
  for (int i = 0; i < 64; ++i) {
    network.originate(0, codec.seal({1.0, seq, simulator.now()}, 0));
    ++seq;
    simulator.run_until(simulator.now() + rng.uniform(0.5, 2.0));
  }
  simulator.run();

  const std::size_t before = allocations();
  for (int round = 0; round < 500; ++round) {
    network.originate(0, codec.seal({1.0, seq, simulator.now()}, 0));
    ++seq;
    simulator.run_until(simulator.now() + rng.uniform(0.5, 2.0));
  }
  simulator.run();
  EXPECT_EQ(allocations() - before, 0u)
      << "delayed forwarding allocated on the steady-state path";
  EXPECT_EQ(network.packets_delivered(), network.packets_originated());
}

TEST(AllocGuard, WarmEqualTimeDispatchAllocatesNothing) {
  // The dispatch loop on equal-time cohorts, with callbacks that schedule
  // at the current time and re-key a pending sibling, must match the
  // queue's zero-allocation contract once the slot pool is warm.
  RandomStream rng(14);
  Simulator simulator;
  simulator.reserve(512);
  double sink = 0.0;
  std::size_t moved_runs = 0;
  EventId moved;
  auto fill = [&] {
    // Ties on an integer grid put many events in every cohort.
    for (int j = 0; j < 16; ++j) {
      const double at = simulator.now() + std::floor(rng.uniform(0.0, 8.0));
      simulator.schedule_at(at, [&sink, &simulator] {
        sink += simulator.now();
        simulator.schedule_at(simulator.now(), [&sink] { sink += 1.0; });
      });
    }
    // A cohort member re-keying the one scheduled right after it.
    simulator.schedule_at(simulator.now() + 4.0, [&simulator, &moved] {
      simulator.reschedule(moved, simulator.now() + 1.0,
                           simulator.reserve_seq());
    });
    moved = simulator.schedule_at(simulator.now() + 4.0,
                                  [&moved_runs] { ++moved_runs; });
  };
  // Warm-up: populate the slot pool.
  for (int i = 0; i < 32; ++i) {
    fill();
    simulator.run();
  }

  const std::size_t before = allocations();
  for (int round = 0; round < 2000; ++round) {
    fill();
    simulator.run();
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "equal-time dispatch allocated when warm";
  EXPECT_EQ(moved_runs, 2032u);
  EXPECT_GT(sink, 0.0);
}

TEST(AllocGuard, WarmSealOpenAllocatesNothing) {
  // The crypto round trip a packet pays once, at its source and its sink.
  const crypto::PayloadCodec codec(
      crypto::Speck64_128::Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                               15, 16});
  std::size_t opened = 0;
  const std::size_t before = allocations();
  for (std::uint32_t seq = 0; seq < 4000; ++seq) {
    const crypto::SealedPayload sealed = codec.seal({1.0, seq, 2.0}, 7);
    opened += codec.open(sealed).has_value();
  }
  EXPECT_EQ(allocations() - before, 0u) << "seal/open allocated";
  EXPECT_EQ(opened, 4000u);
}

TEST(AllocGuard, TopologyAndRoutingAllocationsScaleWithArraysNotNodes) {
  // The million-node contract: building a geometric topology (positions,
  // CSR index and routing tree in one build), the routing table handle and
  // a spec-constructed network must cost a bounded number of allocations
  // (one per flat array plus geometric vector growth), never one-or-more
  // per node. With per-node objects this
  // count was >= n; the bound below leaves two orders of magnitude of
  // headroom at n = 20000.
  constexpr std::size_t kNodes = 20000;
  RandomStream rng(41);
  const std::size_t before_build = allocations();
  const net::Topology topo = net::Topology::random_geometric_multi_sink(
      kNodes, 141.4, 1.8, 8, rng);  // unit density, mean degree ~10
  const net::RoutingTable routing(topo);
  const std::size_t graph_allocs = allocations() - before_build;
  EXPECT_LT(graph_allocs, 200u)
      << "topology/routing construction allocates per node";
  // Mean degree ~10 at unit density: the giant component covers the graph.
  EXPECT_LT(routing.unreachable_count(), kNodes / 10);

  Simulator simulator;
  const std::size_t before_net = allocations();
  const net::Network network(simulator, topo,
                             core::DisciplineSpec::rcad_exponential(30.0, 10),
                             {}, RandomStream(42));
  const std::size_t net_allocs = allocations() - before_net;
  // Flat arrays only — the per-node record index, one block of records for
  // the sink and the buffer slab's one-entry config table; the topology and
  // routing tree are shared. Records, queue heads, pool slots and victim blocks
  // are made when packets arrive, never per node, so the count does not
  // depend on the node count at all.
  EXPECT_LT(net_allocs, 64u)
      << "network construction allocates per node";
  EXPECT_GT(network.memory_bytes(), kNodes * sizeof(std::uint32_t));
}

TEST(AllocGuard, WarmDelayBufferChurnAllocatesNothing) {
  // The full RCAD inner loop — offer at capacity (preempt + admit + re-key),
  // release event — on a warm buffer. Packet payloads are plain structs, so
  // nothing here may allocate.
  Simulator simulator;
  RandomStream rng(13);

  // Drops every transmitted packet: its pool slot is free for the next.
  class NullContext final : public net::NodeContext {
   public:
    NullContext(Simulator& sim, RandomStream& rng, net::PacketPool& pool)
        : sim_(sim), rng_(rng), pool_(pool) {}
    Simulator& simulator() noexcept override { return sim_; }
    RandomStream& rng() noexcept override { return rng_; }
    net::NodeId id() const noexcept override { return 0; }
    void transmit(net::PacketPool::Handle packet) override {
      (void)pool_.take(packet);
    }

   private:
    Simulator& sim_;
    RandomStream& rng_;
    net::PacketPool& pool_;
  };

  net::PacketPool pool;
  NullContext ctx(simulator, rng, pool);
  constexpr std::size_t kCapacity = 32;
  core::DelayBuffer buffer;
  buffer.add_queue(buffer.add_config(
      {std::make_shared<core::ExponentialDelay>(5.0),
       core::VictimPolicy::kShortestRemaining, kCapacity}));
  pool.reserve(kCapacity + 1);  // a full buffer plus the arrival
  simulator.reserve(kCapacity + 8);
  auto make_packet = [&pool](std::uint64_t uid) {
    net::Packet packet;
    packet.uid = uid;
    return pool.put(std::move(packet));
  };
  std::uint64_t uid = 0;
  // Warm-up: fill to capacity once so every slot and heap cell exists.
  for (std::size_t i = 0; i < kCapacity; ++i) {
    buffer.offer(0, make_packet(uid++), ctx);
  }
  const std::size_t before = allocations();
  for (int round = 0; round < 5000; ++round) {
    buffer.offer(0, make_packet(uid++), ctx);
    simulator.run_until(simulator.now() + 0.2);
  }
  simulator.run();
  EXPECT_EQ(allocations() - before, 0u)
      << "RCAD buffer allocated on the steady-state path";
  EXPECT_GT(buffer.preempted(), 0u);
}

}  // namespace
}  // namespace tempriv::sim
