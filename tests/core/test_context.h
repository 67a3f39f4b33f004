#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/delay_buffer.h"
#include "core/delay_distribution.h"
#include "net/forwarding.h"
#include "net/packet_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace tempriv::core::testing {

/// A held packet as the victim oracle (oracles::select_victim) reads it.
struct OracleHeld {
  std::uint64_t uid = 0;
  double release_time = 0.0;
  double enqueue_time = 0.0;
};

/// A queue's held packets in admission order, as the victim oracle reads
/// them: release times from the buffer's snapshot, uids from `pool`, and
/// enqueue times — which the buffer does not keep — from the test's own
/// record `offered` of when it offered each uid.
inline std::vector<OracleHeld> oracle_view(
    const DelayBuffer& buffer, DelayBuffer::QueueId queue,
    net::PacketPool& pool,
    const std::unordered_map<std::uint64_t, double>& offered) {
  std::vector<OracleHeld> view;
  for (const DelayBuffer::Held& held : buffer.snapshot(queue)) {
    const std::uint64_t uid = pool.at(held.packet).uid;
    view.push_back({uid, held.release_time, offered.at(uid)});
  }
  return view;
}

/// Minimal NodeContext for unit-testing disciplines without a Network: owns
/// the packet pool its packets live in, and records every transmission —
/// the packet, taken out of the pool — with its simulation time. With
/// `link_draws` each transmit() also takes one draw from rng(), as
/// Network's link layer does for MAC jitter, so tests can see where a
/// transmission falls among a discipline's own draws.
class TestContext final : public net::NodeContext {
 public:
  explicit TestContext(std::uint64_t seed = 42, bool link_draws = false)
      : rng_(seed), link_draws_(link_draws) {}

  sim::Simulator& simulator() noexcept override { return sim_; }
  sim::RandomStream& rng() noexcept override { return rng_; }
  net::NodeId id() const noexcept override { return 3; }

  void transmit(net::PacketPool::Handle packet) override {
    if (link_draws_) rng_.uniform(0.0, 1.0);
    transmitted_.emplace_back(sim_.now(), pool_.take(packet));
  }

  const std::vector<std::pair<double, net::Packet>>& transmitted() const {
    return transmitted_;
  }

  /// Puts a packet with id `uid` into the pool and returns its handle; the
  /// current time is recorded as its enqueue time (tests offer a packet as
  /// they make it).
  net::PacketPool::Handle make_packet(std::uint64_t uid) {
    net::Packet packet;
    packet.uid = uid;
    packet.header.origin = 1;
    offered_[uid] = sim_.now();
    return pool_.put(std::move(packet));
  }

  net::PacketPool& pool() noexcept { return pool_; }
  /// The uid of the live packet `packet` names.
  std::uint64_t uid(net::PacketPool::Handle packet) {
    return pool_.at(packet).uid;
  }
  /// `buffer`'s queue `queue` as the victim oracle reads it.
  std::vector<OracleHeld> oracle_view(const DelayBuffer& buffer,
                                      DelayBuffer::QueueId queue = 0) {
    return testing::oracle_view(buffer, queue, pool_, offered_);
  }

 private:
  sim::Simulator sim_;
  sim::RandomStream rng_;
  bool link_draws_;
  net::PacketPool pool_;
  std::unordered_map<std::uint64_t, double> offered_;  // uid -> enqueue time
  std::vector<std::pair<double, net::Packet>> transmitted_;
};

/// A slab with one queue, id 0, configured by `config`: the buffer one
/// buffering node of a Network gets. Throws as DelayBuffer::add_config
/// does.
inline DelayBuffer one_queue(DelayBuffer::QueueConfig config) {
  DelayBuffer buffer;
  buffer.add_queue(buffer.add_config(std::move(config)));
  return buffer;
}

/// A one-queue buffer with no capacity bound, so it never preempts or
/// drops. unique_ptr arguments convert implicitly.
inline DelayBuffer one_queue(std::shared_ptr<const DelayDistribution> delay) {
  return one_queue(DelayBuffer::QueueConfig{std::move(delay), std::nullopt,
                                            DelayBuffer::kUnbounded});
}

}  // namespace tempriv::core::testing
