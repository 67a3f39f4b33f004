#include "sim/simulator.h"

namespace tempriv::sim {

bool Simulator::step() {
  return queue_.dispatch_head(
      [this](Time at, EventId, EventQueue::Callback& action) {
        now_ = at;
        ++executed_;
        action();
      });
}

template <class More>
std::size_t Simulator::dispatch_while(More more) {
  stopped_ = false;
  std::size_t count = 0;
  const auto dispatch = [this, &count](Time at, EventId,
                                       EventQueue::Callback& action) {
    now_ = at;
    ++executed_;
    ++count;
    action();
  };
  while (!stopped_ && more() && queue_.dispatch_head(dispatch)) {
  }
  return count;
}

std::size_t Simulator::run() {
  return dispatch_while([] { return true; });
}

std::size_t Simulator::run_until(Time deadline) {
  const std::size_t count =
      dispatch_while([&] { return queue_.next_time() <= deadline; });
  if (!stopped_ && now_ < deadline && std::isfinite(deadline)) now_ = deadline;
  return count;
}

}  // namespace tempriv::sim
