#include "core/discipline_spec.h"

#include <optional>
#include <stdexcept>
#include <utility>

namespace tempriv::core {

namespace {

DisciplineSpec buffering(DisciplineSpec::Kind kind,
                         std::shared_ptr<const DelayDistribution> delay,
                         std::size_t capacity, VictimPolicy victim) {
  if (!delay) throw std::invalid_argument("DisciplineSpec: null distribution");
  if (kind != DisciplineSpec::Kind::kUnlimited && capacity == 0) {
    throw std::invalid_argument("DisciplineSpec: capacity must be >= 1");
  }
  DisciplineSpec spec;
  spec.kind = kind;
  spec.delay = std::move(delay);
  spec.capacity = capacity;
  spec.victim = victim;
  return spec;
}

}  // namespace

DisciplineSpec DisciplineSpec::immediate() { return {}; }

DisciplineSpec DisciplineSpec::unlimited(
    std::shared_ptr<const DelayDistribution> delay) {
  return buffering(Kind::kUnlimited, std::move(delay), 0,
                   VictimPolicy::kShortestRemaining);
}

DisciplineSpec DisciplineSpec::unlimited_exponential(double mean_delay) {
  return unlimited(std::make_shared<const ExponentialDelay>(mean_delay));
}

DisciplineSpec DisciplineSpec::droptail(
    std::shared_ptr<const DelayDistribution> delay, std::size_t capacity) {
  return buffering(Kind::kDropTail, std::move(delay), capacity,
                   VictimPolicy::kShortestRemaining);
}

DisciplineSpec DisciplineSpec::droptail_exponential(double mean_delay,
                                                    std::size_t capacity) {
  return droptail(std::make_shared<const ExponentialDelay>(mean_delay),
                  capacity);
}

DisciplineSpec DisciplineSpec::rcad(
    std::shared_ptr<const DelayDistribution> delay, std::size_t capacity,
    VictimPolicy victim) {
  return buffering(Kind::kRcad, std::move(delay), capacity, victim);
}

DisciplineSpec DisciplineSpec::rcad_exponential(double mean_delay,
                                                std::size_t capacity,
                                                VictimPolicy victim) {
  return rcad(std::make_shared<const ExponentialDelay>(mean_delay), capacity,
              victim);
}

DisciplineSpec DisciplineSpec::custom(net::DisciplineFactory factory) {
  if (!factory) throw std::invalid_argument("DisciplineSpec: null factory");
  DisciplineSpec spec;
  spec.kind = Kind::kCustom;
  spec.factory = std::move(factory);
  return spec;
}

DelayBuffer::QueueConfig DisciplineSpec::queue_config() const {
  if (!buffered()) {
    throw std::logic_error("DisciplineSpec: kind holds no buffer queue");
  }
  return {delay,
          kind == Kind::kRcad ? std::optional<VictimPolicy>(victim)
                              : std::nullopt,
          kind == Kind::kUnlimited ? DelayBuffer::kUnbounded : capacity};
}

}  // namespace tempriv::core
