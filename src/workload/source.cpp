#include "workload/source.h"

#include <stdexcept>

namespace tempriv::workload {

Source::Source(net::Network& network, const crypto::PayloadCodec& codec,
               net::NodeId origin, sim::RandomStream rng)
    : network_(network), codec_(codec), origin_(origin), rng_(rng) {}

std::uint64_t Source::emit() {
  crypto::SensorPayload payload;
  payload.reading = rng_.normal(20.0, 2.0);  // e.g. a temperature reading
  payload.app_seq = app_seq_++;
  payload.creation_time = network_.simulator().now();
  return network_.originate(origin_, codec_.seal(payload, origin_));
}

PeriodicSource::PeriodicSource(net::Network& network,
                               const crypto::PayloadCodec& codec,
                               net::NodeId origin, sim::RandomStream rng,
                               double interval, std::uint32_t count)
    : Source(network, codec, origin, rng), interval_(interval), count_(count) {
  if (interval <= 0.0) {
    throw std::invalid_argument("PeriodicSource: interval must be positive");
  }
}

void PeriodicSource::start(double at) {
  if (count_ == 0) return;
  network().simulator().schedule_at(at, [this] { tick(); });
}

void PeriodicSource::tick() {
  emit();
  if (packets_created() < count_) {
    network().simulator().schedule_after(interval_, [this] { tick(); });
  }
}

PoissonSource::PoissonSource(net::Network& network,
                             const crypto::PayloadCodec& codec,
                             net::NodeId origin, sim::RandomStream rng,
                             double rate, std::uint32_t count)
    : Source(network, codec, origin, rng), rate_(rate), count_(count) {
  if (rate <= 0.0) {
    throw std::invalid_argument("PoissonSource: rate must be positive");
  }
}

void PoissonSource::start(double at) {
  if (count_ == 0) return;
  // The first creation is itself one exponential step after `at`, so the
  // whole creation process is Poisson from `at` on.
  network().simulator().schedule_at(
      at + rng().exponential_rate(rate_), [this] { tick(); });
}

void PoissonSource::tick() {
  emit();
  if (packets_created() < count_) {
    network().simulator().schedule_after(rng().exponential_rate(rate_),
                                         [this] { tick(); });
  }
}

}  // namespace tempriv::workload
