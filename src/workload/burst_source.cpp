#include "workload/burst_source.h"

#include <stdexcept>

namespace tempriv::workload {

BurstSource::BurstSource(net::Network& network,
                         const crypto::PayloadCodec& codec, net::NodeId origin,
                         sim::RandomStream rng, const Config& config)
    : Source(network, codec, origin, rng), config_(config) {
  if (config.burst_rate <= 0.0 || config.mean_on_time <= 0.0 ||
      config.mean_off_time <= 0.0) {
    throw std::invalid_argument("BurstSource: non-positive config value");
  }
}

void BurstSource::start(double at) {
  if (config_.count == 0) return;
  // The process starts OFF; the first burst begins one OFF period in.
  network().simulator().schedule_at(
      at + rng().exponential_mean(config_.mean_off_time),
      [this] { begin_burst(); });
}

void BurstSource::begin_burst() {
  const double burst_ends =
      network().simulator().now() + rng().exponential_mean(config_.mean_on_time);
  tick(burst_ends);
}

void BurstSource::tick(double burst_ends) {
  if (packets_created() >= config_.count) return;
  const double next =
      network().simulator().now() + rng().exponential_rate(config_.burst_rate);
  if (next >= burst_ends) {
    // Burst over: go OFF, then start the next burst.
    network().simulator().schedule_at(
        burst_ends + rng().exponential_mean(config_.mean_off_time),
        [this] { begin_burst(); });
    return;
  }
  network().simulator().schedule_at(next, [this, burst_ends] {
    emit();
    tick(burst_ends);
  });
}

}  // namespace tempriv::workload
