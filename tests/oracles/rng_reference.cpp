#include "oracles/rng_reference.h"

#include "sim/rng.h"

namespace tempriv::oracles {

std::array<std::uint64_t, 4> reference_long_jump(
    const std::array<std::uint64_t, 4>& state) {
  static constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  sim::Xoshiro256pp rng = sim::Xoshiro256pp::from_state(state);
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        for (std::size_t w = 0; w < 4; ++w) acc[w] ^= rng.state()[w];
      }
      rng.next();
    }
  }
  return acc;
}

}  // namespace tempriv::oracles
