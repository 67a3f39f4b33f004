#pragma once

#include <array>
#include <cstdint>

namespace tempriv::oracles {

/// The authors' 256-step xoshiro256 long jump (walk the generator, XOR in
/// the states at the jump polynomial's set bits): the oracle for the
/// table-driven Xoshiro256pp::long_jump.
std::array<std::uint64_t, 4> reference_long_jump(
    const std::array<std::uint64_t, 4>& state);

}  // namespace tempriv::oracles
