#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace tempriv::sim {

/// Discrete-event simulation kernel: a virtual clock plus an event queue.
///
/// Components schedule callbacks at absolute or relative times; run() /
/// run_until() advance the clock from event to event. Every scheduled event
/// runs: a component that must move a pending event (a buffering queue
/// whose head packet changed, see core/delay_buffer.h) re-keys it in place
/// with reschedule().
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `at`.
  /// Throws std::invalid_argument if `at` precedes the current time or is
  /// not a finite number — both indicate a logic error in the caller.
  /// `action` is any nullary callable; small captures are stored inline in
  /// the kernel's slot pool (see EventQueue::Callback) with no heap
  /// allocation.
  template <class F>
  EventId schedule_at(Time at, F&& action) {
    check_time(at);
    return queue_.schedule(at, std::forward<F>(action));
  }

  /// Takes the next sequence number without scheduling anything; see
  /// EventQueue::reserve_seq.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// schedule_at() with a sequence number taken earlier by reserve_seq():
  /// among equal-time events the action runs where an event scheduled at
  /// the reservation would have. Same time checks as schedule_at().
  template <class F>
  EventId schedule_at(Time at, std::uint64_t seq, F&& action) {
    check_time(at);
    return queue_.schedule(at, seq, std::forward<F>(action));
  }

  /// Moves a pending event to (`at`, reserved `seq`) in place and returns
  /// its new handle; see EventQueue::reschedule. Same time checks as
  /// schedule_at().
  EventId reschedule(EventId id, Time at, std::uint64_t seq) {
    check_time(at);
    return queue_.reschedule(id, at, seq);
  }

  /// Re-arms the running event from its own callback; see
  /// EventQueue::rearm. Same time checks as schedule_at().
  EventId rearm(Time at, std::uint64_t seq) {
    check_time(at);
    return queue_.rearm(at, seq);
  }

  /// Schedules `action` after `delay` (>= 0, finite) time units.
  template <class F>
  EventId schedule_after(Duration delay, F&& action) {
    if (!std::isfinite(delay) || delay < 0.0) {
      throw std::invalid_argument(
          "Simulator::schedule_after: delay must be finite and >= 0");
    }
    return queue_.schedule(now_ + delay, std::forward<F>(action));
  }

  /// schedule_after() for delays drawn from a fixed constant (link latency
  /// being the canonical case): now_ never decreases, so such events arrive
  /// in non-decreasing time order and take the event queue's O(1) FIFO lane
  /// (EventQueue::schedule_monotone) instead of the heap. Safe for any
  /// delay — out-of-order times fall back to the heap internally — but the
  /// win exists only when successive calls' (now_ + delay) are
  /// non-decreasing.
  template <class F>
  EventId schedule_after_monotone(Duration delay, F&& action) {
    if (!std::isfinite(delay) || delay < 0.0) {
      throw std::invalid_argument(
          "Simulator::schedule_after_monotone: delay must be finite and >= 0");
    }
    return queue_.schedule_monotone(now_ + delay, std::forward<F>(action));
  }

  /// Pre-sizes the event queue for `events` concurrent pending events so the
  /// steady state never reallocates (see EventQueue::reserve).
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Runs until the event queue is empty or stop() is called.
  /// Returns the number of events executed.
  ///
  /// One loop over EventQueue::dispatch_head: each event runs in place in
  /// its pool slot, in (time, insertion order). Equal-time events are no
  /// special case — an event scheduled or re-keyed by a callback at the
  /// current time is ordered by its sequence number like any other, and
  /// stop() or an exception leaves every event not yet run pending.
  std::size_t run();

  /// Runs all events with timestamp <= deadline (or until stop()); the clock
  /// then rests at min(deadline, time of last work). Returns events executed.
  std::size_t run_until(Time deadline);

  /// Requests run()/run_until() to return after the current callback.
  void stop() noexcept { stopped_ = true; }

  /// Pending event count.
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Time of the next pending event (kTimeInfinity if none).
  Time next_event_time() const { return queue_.next_time(); }

  /// Total events executed since construction.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// The event queue, for its lifetime counts (EventQueue::scheduled_heap(),
  /// rekeys() and the rest).
  const EventQueue& queue() const noexcept { return queue_; }

 private:
  void check_time(Time at) const {
    if (!std::isfinite(at)) {
      throw std::invalid_argument("Simulator::schedule_at: non-finite time");
    }
    if (at < now_) {
      throw std::invalid_argument(
          "Simulator::schedule_at: cannot schedule in the past");
    }
  }

  /// Dispatches head events while `more()` holds and stop() was not
  /// called; returns the number run.
  template <class More>
  std::size_t dispatch_while(More more);

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace tempriv::sim
