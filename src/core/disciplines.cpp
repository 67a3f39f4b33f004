#include "core/disciplines.h"

#include <optional>
#include <utility>

namespace tempriv::core {

DropTailDelaying::DropTailDelaying(
    std::shared_ptr<const DelayDistribution> delay, std::size_t capacity)
    : buffer_(DelayBuffer::QueueConfig{std::move(delay), std::nullopt,
                                       capacity}) {}

void DropTailDelaying::on_packet(net::Packet&& packet, net::NodeContext& ctx) {
  if (buffer_.size() >= capacity()) {
    ++drops_;
    return;  // packet destroyed; the Erlang-loss event of Eq. (5)
  }
  buffer_.admit(std::move(packet), ctx);
}

RcadDiscipline::RcadDiscipline(std::shared_ptr<const DelayDistribution> delay,
                               std::size_t capacity, VictimPolicy victim_policy)
    : buffer_(DelayBuffer::QueueConfig{std::move(delay), victim_policy,
                                       capacity}) {}

void RcadDiscipline::on_packet(net::Packet&& packet, net::NodeContext& ctx) {
  if (buffer_.size() >= capacity()) {
    net::Packet early = buffer_.preempt(ctx);
    ++preemptions_;
    ctx.transmit(std::move(early));
  }
  buffer_.admit(std::move(packet), ctx);
}

}  // namespace tempriv::core
