#include "core/erlang_tuned.h"

#include <algorithm>
#include <stdexcept>

#include "queueing/erlang.h"

namespace tempriv::core {

ErlangTunedRcad::ErlangTunedRcad(const Config& config)
    : config_(config),
      admissible_rho_(0.0),
      buffer_(DelayBuffer::QueueConfig{
          std::make_unique<ExponentialDelay>(
              std::max(config.max_mean_delay, 1e-9)),
          config.victim, config.capacity}),
      current_mean_(config.max_mean_delay) {
  if (config.capacity == 0) {
    throw std::invalid_argument("ErlangTunedRcad: capacity must be >= 1");
  }
  if (config.target_loss <= 0.0 || config.target_loss >= 1.0) {
    throw std::invalid_argument("ErlangTunedRcad: target_loss outside (0,1)");
  }
  if (config.max_mean_delay <= 0.0) {
    throw std::invalid_argument("ErlangTunedRcad: max_mean_delay <= 0");
  }
  if (config.ewma_weight <= 0.0 || config.ewma_weight > 1.0) {
    throw std::invalid_argument("ErlangTunedRcad: ewma_weight outside (0,1]");
  }
  admissible_rho_ = queueing::max_rho_for_loss(config.target_loss,
                                               config.capacity);
  buffer_.reserve(config.capacity);
}

void ErlangTunedRcad::retune(double now) {
  if (has_arrival_) {
    const double gap = now - last_arrival_;
    ewma_gap_ = ewma_gap_ <= 0.0
                    ? gap
                    : (1.0 - config_.ewma_weight) * ewma_gap_ +
                          config_.ewma_weight * gap;
    if (ewma_gap_ > 0.0) {
      rate_estimate_ = 1.0 / ewma_gap_;
      current_mean_ =
          std::min(config_.max_mean_delay, admissible_rho_ / rate_estimate_);
    }
  }
  has_arrival_ = true;
  last_arrival_ = now;
}

void ErlangTunedRcad::on_packet(net::Packet&& packet, net::NodeContext& ctx) {
  retune(ctx.simulator().now());
  if (buffer_.size() >= config_.capacity) {
    // Safety net for bursts the EWMA lags behind: classic RCAD preemption.
    net::Packet early = buffer_.preempt(ctx);
    ++preemptions_;
    ctx.transmit(std::move(early));
  }
  buffer_.admit_with_delay(std::move(packet), ctx,
                           ctx.rng().exponential_mean(current_mean_));
}

net::DisciplineFactory erlang_tuned_rcad_factory(
    const ErlangTunedRcad::Config& config) {
  return [config](net::NodeId, std::uint16_t)
             -> std::unique_ptr<net::ForwardingDiscipline> {
    return std::make_unique<ErlangTunedRcad>(config);
  };
}

}  // namespace tempriv::core
