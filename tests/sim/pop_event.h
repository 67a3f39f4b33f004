#pragma once

#include <optional>
#include <utility>

#include "sim/event_queue.h"

namespace tempriv::sim {

/// A pending event taken off an EventQueue, its callback moved out.
struct PoppedEvent {
  Time at = kTimeZero;
  EventId id;
  EventQueue::Callback action;
};

/// Removes and returns the earliest pending event, or nullopt if the queue
/// is empty: dispatch_head() with the callback moved out instead of run, so
/// a test can look at the event before (or instead of) running it.
inline std::optional<PoppedEvent> pop(EventQueue& queue) {
  std::optional<PoppedEvent> event;
  queue.dispatch_head(
      [&event](Time at, EventId id, EventQueue::Callback& action) {
        event.emplace(PoppedEvent{at, id, std::move(action)});
      });
  return event;
}

}  // namespace tempriv::sim
