#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/delay_buffer.h"
#include "core/delay_distribution.h"
#include "net/forwarding.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace tempriv::core::testing {

/// Minimal NodeContext for unit-testing disciplines without a Network:
/// records every transmission with its simulation time. With `link_draws`
/// each transmit() also takes one draw from rng(), as Network's link layer
/// does for MAC jitter, so tests can see where a transmission falls among a
/// discipline's own draws.
class TestContext final : public net::NodeContext {
 public:
  explicit TestContext(std::uint64_t seed = 42, bool link_draws = false)
      : rng_(seed), link_draws_(link_draws) {}

  sim::Simulator& simulator() noexcept override { return sim_; }
  sim::RandomStream& rng() noexcept override { return rng_; }
  net::NodeId id() const noexcept override { return 3; }

  void transmit(net::Packet&& packet) override {
    if (link_draws_) rng_.uniform(0.0, 1.0);
    transmitted_.emplace_back(sim_.now(), std::move(packet));
  }

  const std::vector<std::pair<double, net::Packet>>& transmitted() const {
    return transmitted_;
  }

  net::Packet make_packet(std::uint64_t uid) const {
    net::Packet packet;
    packet.uid = uid;
    packet.header.origin = 1;
    return packet;
  }

 private:
  sim::Simulator sim_;
  sim::RandomStream rng_;
  bool link_draws_;
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
