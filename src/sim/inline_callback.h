#pragma once

#include <cstddef>

#include "sim/inline_function.h"

namespace tempriv::sim {

/// Move-only type-erased nullary callable with a fixed inline buffer — the
/// storage type of the event kernel's slot pool. Callables whose state fits
/// in `Capacity` bytes (and is nothrow-movable) are stored in place;
/// invoking, moving, and destroying them never touches the heap, and every
/// lambda the simulator schedules on its hot path is sized to stay inline
/// (see the allocation-counter test). Larger callables transparently fall
/// back to one heap allocation so the API stays general.
///
/// This is the nullary case of sim::InlineFunction (inline_function.h),
/// which generalizes the same storage scheme to arbitrary signatures for
/// the network's probe delegates.
template <std::size_t Capacity>
using InlineCallback = InlineFunction<void(), Capacity>;

}  // namespace tempriv::sim
