#include "net/packet_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/random.h"

namespace tempriv::net {
namespace {

Packet make_packet(std::uint64_t uid) {
  Packet packet;
  packet.uid = uid;
  packet.header.origin = static_cast<NodeId>(uid % 97);
  packet.header.hop_count = static_cast<std::uint16_t>(uid % 31);
  packet.payload.nonce = uid * 0x9e3779b97f4a7c15ULL;
  packet.payload.ciphertext.resize(crypto::SensorPayload::kWireBytes);
  for (std::size_t i = 0; i < packet.payload.ciphertext.size(); ++i) {
    packet.payload.ciphertext[i] = static_cast<std::uint8_t>(uid + i);
  }
  return packet;
}

TEST(PacketPool, PutTakeRoundTripsThePacket) {
  PacketPool pool;
  const Packet original = make_packet(7);
  Packet copy = original;
  const PacketPool::Handle handle = pool.put(std::move(copy));
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(pool.live(), 1u);
  const Packet out = pool.take(handle);
  EXPECT_EQ(out.uid, original.uid);
  EXPECT_EQ(out.payload.ciphertext, original.payload.ciphertext);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, AtRoundTripsThePacket) {
  PacketPool pool;
  const Packet original = make_packet(9);
  const PacketPool::Handle handle = pool.put(Packet(original));
  const Packet& stored = pool.at(handle);
  EXPECT_EQ(stored.uid, original.uid);
  EXPECT_EQ(stored.header.origin, original.header.origin);
  EXPECT_EQ(stored.payload.nonce, original.payload.nonce);
  EXPECT_EQ(stored.payload.ciphertext, original.payload.ciphertext);
  EXPECT_EQ(&pool.at(handle), &stored);  // in place: the same slot each time
  EXPECT_EQ(pool.live(), 1u);            // at() takes nothing out
}

TEST(PacketPool, HeaderWriteThroughAtIsWhatTakeReturns) {
  PacketPool pool;
  const PacketPool::Handle handle = pool.put(make_packet(4));
  Packet& packet = pool.at(handle);
  packet.header.prev_hop = 17;
  packet.header.hop_count = 3;
  packet.header.routing_seq = 65535;
  const Packet out = pool.take(handle);
  EXPECT_EQ(out.header.prev_hop, 17u);
  EXPECT_EQ(out.header.hop_count, 3u);
  EXPECT_EQ(out.header.routing_seq, 65535u);
  EXPECT_EQ(out.uid, 4u);
}

TEST(PacketPool, AtRejectsTakenDefaultAndForgedHandles) {
  PacketPool pool;
  const PacketPool::Handle taken = pool.put(make_packet(1));
  (void)pool.take(taken);
  EXPECT_THROW(pool.at(taken), std::logic_error);
  EXPECT_THROW(pool.at(PacketPool::Handle{}), std::logic_error);
  const PacketPool::Handle live = pool.put(make_packet(2));  // reuses the slot
  EXPECT_THROW(pool.at(taken), std::logic_error);  // stale, not aliased
  // Forged: the live slot with another sequence word, and a slot never
  // handed out.
  EXPECT_THROW(pool.at(PacketPool::Handle(live.value() + (1u << 24))),
               std::logic_error);
  EXPECT_THROW(pool.at(PacketPool::Handle((7ull << 24) | 5u)),
               std::logic_error);
  EXPECT_EQ(pool.at(live).uid, 2u);
}

TEST(PacketPool, DefaultHandleIsInvalid) {
  PacketPool pool;
  EXPECT_THROW(pool.take(PacketPool::Handle{}), std::logic_error);
}

TEST(PacketPool, DoubleTakeThrows) {
  PacketPool pool;
  const auto handle = pool.put(make_packet(1));
  (void)pool.take(handle);
  EXPECT_THROW(pool.take(handle), std::logic_error);
}

TEST(PacketPool, StaleHandleCannotAliasSlotReuse) {
  PacketPool pool;
  const auto first = pool.put(make_packet(1));
  (void)pool.take(first);
  // The freed slot is reused, but the sequence word differs: the old
  // handle must throw instead of handing back the new occupant.
  const auto second = pool.put(make_packet(2));
  EXPECT_THROW(pool.take(first), std::logic_error);
  EXPECT_EQ(pool.take(second).uid, 2u);
}

TEST(PacketPool, SteadyStateReusesSlots) {
  PacketPool pool;
  for (int round = 0; round < 1000; ++round) {
    const auto handle = pool.put(make_packet(static_cast<std::uint64_t>(round)));
    EXPECT_EQ(pool.take(handle).uid, static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(pool.slot_count(), 1u);  // one slot, visited 1000 times
}

TEST(PacketPool, RandomizedChurnMatchesReferenceModel) {
  // Property test: an interleaving of puts and takes driven by a seeded RNG
  // must behave exactly like a uid-keyed map, and the pool's footprint must
  // stay bounded by the high-water mark of concurrently parked packets.
  PacketPool pool;
  sim::RandomStream rng(0x900d5eedULL);
  std::unordered_map<std::uint64_t, PacketPool::Handle> live;  // uid -> handle
  std::vector<std::uint64_t> uids;
  std::uint64_t next_uid = 0;
  std::size_t high_water = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool put = live.empty() || rng.uniform(0.0, 1.0) < 0.55;
    if (put) {
      const std::uint64_t uid = next_uid++;
      live.emplace(uid, pool.put(make_packet(uid)));
      uids.push_back(uid);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(uids.size())));
      const std::uint64_t uid = uids[pick < uids.size() ? pick : 0];
      const Packet out = pool.take(live.at(uid));
      EXPECT_EQ(out.uid, uid);
      EXPECT_EQ(out.payload.nonce, uid * 0x9e3779b97f4a7c15ULL);
      live.erase(uid);
      uids[pick < uids.size() ? pick : 0] = uids.back();
      uids.pop_back();
    }
    high_water = std::max(high_water, live.size());
    ASSERT_EQ(pool.live(), live.size());
  }
  EXPECT_LE(pool.slot_count(), high_water);
  // Drain; every survivor must still round-trip.
  for (const auto& [uid, handle] : live) {
    EXPECT_EQ(pool.take(handle).uid, uid);
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PacketPool, ReservePreallocatesWithoutChangingBehavior) {
  PacketPool pool;
  pool.reserve(64);
  std::vector<PacketPool::Handle> handles;
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    handles.push_back(pool.put(make_packet(uid)));
  }
  EXPECT_EQ(pool.live(), 64u);
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    EXPECT_EQ(pool.take(handles[uid]).uid, uid);
  }
}

}  // namespace
}  // namespace tempriv::net
