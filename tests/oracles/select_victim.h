#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/delay_buffer.h"
#include "sim/random.h"

namespace tempriv::oracles {

/// Reference RCAD victim selection (paper §5): the index of the victim in
/// `held`, which lists a queue's packets in admission order. A linear scan
/// on the remaining delay (release_time − now), first-wins on ties; kRandom
/// is one uniform index draw. This is the behavioural contract of
/// DelayBuffer::preempt's heap-indexed selection, and the victim rule of
/// the reference network. `Held` is any record with `release_time` and
/// `enqueue_time` (DelayBuffer::Held, or the reference network's own).
/// Throws std::invalid_argument for an empty `held`.
template <class Held>
std::size_t select_victim(const std::vector<Held>& held,
                          core::VictimPolicy policy, double now,
                          sim::RandomStream& rng) {
  if (held.empty()) throw std::invalid_argument("select_victim: empty buffer");
  auto remaining = [now](const Held& h) { return h.release_time - now; };
  std::size_t best = 0;
  switch (policy) {
    case core::VictimPolicy::kShortestRemaining:
      for (std::size_t i = 1; i < held.size(); ++i) {
        if (remaining(held[i]) < remaining(held[best])) best = i;
      }
      return best;
    case core::VictimPolicy::kLongestRemaining:
      for (std::size_t i = 1; i < held.size(); ++i) {
        if (remaining(held[i]) > remaining(held[best])) best = i;
      }
      return best;
    case core::VictimPolicy::kRandom:
      return static_cast<std::size_t>(rng.uniform_index(held.size()));
    case core::VictimPolicy::kOldest:
      for (std::size_t i = 1; i < held.size(); ++i) {
        if (held[i].enqueue_time < held[best].enqueue_time) best = i;
      }
      return best;
  }
  throw std::logic_error("select_victim: unknown policy");
}

}  // namespace tempriv::oracles
