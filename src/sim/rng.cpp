#include "sim/rng.h"

#include <cstddef>

namespace tempriv::sim {

namespace {

using State = std::array<std::uint64_t, 4>;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// The xoshiro256 state transition (next() without the output function).
constexpr void advance(State& s) noexcept {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

/// A 32 KiB lookup table for the 2^128-step long jump. The jump is
/// GF(2)-linear in the 256-bit state, so it distributes over XOR: split the
/// state into 64 nibbles and sum (XOR) each nibble's precomputed image.
/// entry[p][v] is the jump of the state whose only set bits are the bits of
/// v placed at nibble p, i.e. at bits 4(p % 16)..4(p % 16)+3 of word p / 16.
struct LongJumpTable {
  State entry[64][16];
};

LongJumpTable make_long_jump_table() {
  // Jump polynomial coefficients from the authors' xoshiro256 long_jump().
  constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  // Images of the 256 basis states: walk each one-bit state 256 steps,
  // summing the states at the polynomial's set coefficients.
  State basis[256]{};
  for (int bit = 0; bit < 256; ++bit) {
    State s{};
    s[bit / 64] = std::uint64_t{1} << (bit % 64);
    State& image = basis[bit];
    for (int step = 0; step < 256; ++step) {
      if ((kJump[step / 64] >> (step % 64)) & 1) {
        for (std::size_t w = 0; w < 4; ++w) image[w] ^= s[w];
      }
      advance(s);
    }
  }
  LongJumpTable table{};
  for (int p = 0; p < 64; ++p) {
    for (int v = 1; v < 16; ++v) {
      State& out = table.entry[p][v];
      for (int b = 0; b < 4; ++b) {
        if ((v >> b) & 1) {
          for (std::size_t w = 0; w < 4; ++w) out[w] ^= basis[4 * p + b][w];
        }
      }
    }
  }
  return table;
}

/// Built on first use (~65k state steps, well under a millisecond); a
/// compile-time table would exceed the compilers' constant-evaluation budget.
const LongJumpTable& long_jump_table() {
  static const LongJumpTable table = make_long_jump_table();
  return table;
}

}  // namespace

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Xoshiro256pp Xoshiro256pp::from_state(
    const std::array<std::uint64_t, 4>& state) noexcept {
  Xoshiro256pp rng(0);
  rng.s_ = state;
  return rng;
}

std::uint64_t Xoshiro256pp::next() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  advance(s_);
  return result;
}

Xoshiro256pp Xoshiro256pp::split(std::uint64_t stream_id) const noexcept {
  // Mix the current state with the stream id through SplitMix64 to obtain a
  // fresh seed, then jump far away so sequences cannot overlap in practice.
  SplitMix64 sm(s_[0] ^ (s_[2] * 0x9e3779b97f4a7c15ULL) ^
                (stream_id + 0x632be59bd9b4e019ULL) * 0xff51afd7ed558ccdULL);
  Xoshiro256pp child(sm.next());
  child.long_jump();
  return child;
}

void Xoshiro256pp::long_jump() noexcept {
  const LongJumpTable& table = long_jump_table();
  State out{};
  for (std::size_t w = 0; w < 4; ++w) {
    const std::uint64_t word = s_[w];
    for (std::size_t k = 0; k < 16; ++k) {
      const State& image = table.entry[16 * w + k][(word >> (4 * k)) & 15];
      for (std::size_t i = 0; i < 4; ++i) out[i] ^= image[i];
    }
  }
  s_ = out;
}

}  // namespace tempriv::sim
