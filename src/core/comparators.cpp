#include "core/comparators.h"

#include <stdexcept>
#include <utility>

namespace tempriv::core {

FifoDelaying::FifoDelaying(std::unique_ptr<DelayDistribution> service)
    : service_(std::move(service)) {
  if (!service_) throw std::invalid_argument("FifoDelaying: null distribution");
}

void FifoDelaying::on_packet(net::Packet&& packet, net::NodeContext& ctx) {
  queue_.push_back(std::move(packet));
  if (!serving_) begin_service(ctx);
}

void FifoDelaying::begin_service(net::NodeContext& ctx) {
  serving_ = true;
  const double service_time = service_->sample(ctx.rng());
  ctx.simulator().schedule_after(service_time,
                                 [this, &ctx] { complete_service(ctx); });
}

void FifoDelaying::complete_service(net::NodeContext& ctx) {
  net::Packet packet = std::move(queue_.front());
  queue_.pop_front();
  ctx.transmit(std::move(packet));
  if (!queue_.empty()) {
    begin_service(ctx);
  } else {
    serving_ = false;
  }
}

TimedPoolMix::TimedPoolMix(double interval, std::size_t pool_keep)
    : interval_(interval), pool_keep_(pool_keep) {
  if (interval <= 0.0) {
    throw std::invalid_argument("TimedPoolMix: interval must be positive");
  }
}

void TimedPoolMix::on_packet(net::Packet&& packet, net::NodeContext& ctx) {
  pool_.push_back(std::move(packet));
  if (!timer_armed_) {
    timer_armed_ = true;
    ctx.simulator().schedule_after(interval_, [this, &ctx] { flush(ctx); });
  }
}

void TimedPoolMix::flush(net::NodeContext& ctx) {
  ++flushes_;
  // Uniform random subset of size pool_keep stays behind: shuffle by
  // repeatedly swapping a random survivor to the front, then transmit the
  // tail in random order.
  while (pool_.size() > pool_keep_) {
    const std::size_t pick =
        static_cast<std::size_t>(ctx.rng().uniform_index(pool_.size()));
    net::Packet packet = std::move(pool_[pick]);
    pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(pick));
    ctx.transmit(std::move(packet));
  }
  // After a flush the pool holds at most pool_keep packets, which no timer
  // tick could release; disarm and re-arm on the next arrival (this also
  // lets an idle network drain its event queue and terminate).
  timer_armed_ = false;
}

net::DisciplineFactory fifo_exponential_factory(double mean_service) {
  return [mean_service] {
    return std::make_unique<FifoDelaying>(
        std::make_unique<ExponentialDelay>(mean_service));
  };
}

net::DisciplineFactory timed_pool_mix_factory(double interval,
                                              std::size_t pool_keep) {
  return [interval, pool_keep] {
    return std::make_unique<TimedPoolMix>(interval, pool_keep);
  };
}

}  // namespace tempriv::core
