#pragma once

#include <array>
#include <cstdint>

namespace tempriv::sim {

/// SplitMix64: a tiny, fast 64-bit generator. We use it for two jobs:
/// seeding Xoshiro256pp state from a single 64-bit seed, and deriving
/// independent per-component substream seeds ("splitting") so that adding a
/// new source/node never perturbs the random stream of existing ones.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ (Blackman & Vigna). Deterministic and bit-stable across
/// platforms, unlike std:: distributions; this is the root generator for
/// every random quantity in the simulator.
///
/// Satisfies UniformRandomBitGenerator, so it can also feed <random> if a
/// caller wants that (the library itself only uses the samplers in
/// random.h, which are bit-stable).
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words through SplitMix64, per the authors'
  /// recommendation (avoids the all-zero state for any seed).
  explicit Xoshiro256pp(std::uint64_t seed) noexcept;

  /// A generator positioned at `state` exactly (no seeding). The all-zero
  /// state is a fixed point of the generator.
  static Xoshiro256pp from_state(const std::array<std::uint64_t, 4>& state) noexcept;

  /// The current 256-bit state.
  const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Derives an independent generator for a subcomponent. `stream_id`
  /// identifies the component (node id, source id, ...); generators with
  /// different ids are statistically independent of each other and of
  /// `*this`'s future output.
  Xoshiro256pp split(std::uint64_t stream_id) const noexcept;

  /// 2^128 steps of the generator; used by split() to decorrelate streams.
  /// The jump is linear over GF(2) in the state, so it runs as 64 lookups
  /// into a once-per-process table (one per state nibble) instead of the
  /// authors' 256-step walk; the result is the same state bit for bit.
  void long_jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace tempriv::sim
