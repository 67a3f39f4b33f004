#include "sim/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <vector>

namespace tempriv::sim {
namespace {

using State = std::array<std::uint64_t, 4>;

/// The authors' 256-step xoshiro256 long jump (walk the generator, XOR in
/// the states at the jump polynomial's set bits): the oracle for the
/// table-driven Xoshiro256pp::long_jump.
State reference_long_jump(const State& state) {
  static constexpr std::uint64_t kJump[] = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  Xoshiro256pp rng = Xoshiro256pp::from_state(state);
  State acc{};
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

State table_long_jump(const State& state) {
  Xoshiro256pp rng = Xoshiro256pp::from_state(state);
  rng.long_jump();
  return rng.state();
}

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64, KnownReferenceValues) {
  // Reference outputs for seed 1234567 from the public-domain splitmix64.c.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.next(), 9817491932198370423ULL);
}

TEST(Xoshiro256pp, IsDeterministicForSeed) {
  Xoshiro256pp a(7);
  Xoshiro256pp b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256pp, ZeroSeedStillProducesOutput) {
  // SplitMix seeding guarantees a non-degenerate state even for seed 0.
  Xoshiro256pp rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 100; ++i) values.insert(rng.next());
  EXPECT_GT(values.size(), 90u);
}

TEST(Xoshiro256pp, SplitStreamsAreDecorrelated) {
  Xoshiro256pp root(99);
  Xoshiro256pp a = root.split(0);
  Xoshiro256pp b = root.split(1);
  int matches = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++matches;
  }
  EXPECT_EQ(matches, 0);
}

TEST(Xoshiro256pp, SplitIsStableAcrossCalls) {
  Xoshiro256pp root(99);
  Xoshiro256pp a1 = root.split(5);
  Xoshiro256pp a2 = root.split(5);  // same id, same parent state
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a1.next(), a2.next());
}

TEST(Xoshiro256pp, SplitDoesNotPerturbParent) {
  Xoshiro256pp a(123);
  Xoshiro256pp b(123);
  (void)a.split(17);  // splitting must not advance the parent
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256pp, FromStateRoundTrips) {
  const State state = {1, 2, 3, 4};
  EXPECT_EQ(Xoshiro256pp::from_state(state).state(), state);
  Xoshiro256pp seeded(77);
  Xoshiro256pp copy = Xoshiro256pp::from_state(seeded.state());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(copy.next(), seeded.next());
}

TEST(Xoshiro256pp, LongJumpTableMatchesReferenceOnEveryNibblePattern) {
  // One state per table entry: nibble p of the state set to v, all other
  // bits clear. The single-bit values of v are the 256 basis states; the
  // others catch a wrong multi-bit entry by name.
  for (int p = 0; p < 64; ++p) {
    for (std::uint64_t v = 1; v < 16; ++v) {
      State state{};
      state[p / 16] = v << (4 * (p % 16));
      ASSERT_EQ(table_long_jump(state), reference_long_jump(state))
          << "nibble " << p << " value " << v;
    }
  }
  EXPECT_EQ(table_long_jump(State{}), State{});  // linear: zero stays zero
}

TEST(Xoshiro256pp, LongJumpTableMatchesReferenceOnRandomStates) {
  SplitMix64 words(20240607);
  for (int i = 0; i < 10000; ++i) {
    const State state = {words.next(), words.next(), words.next(), words.next()};
    ASSERT_EQ(table_long_jump(state), reference_long_jump(state)) << "state " << i;
  }
}

TEST(Xoshiro256pp, SplitStreamsMatchRecordedWords) {
  // First two outputs of split(id), recorded with the 256-step loop jump.
  struct Recorded {
    std::uint64_t seed;
    std::uint64_t id;
    std::uint64_t first;
    std::uint64_t second;
  };
  const Recorded recorded[] = {
      {1, 0, 0x631fa4b33d9854c1ULL, 0x5621108318cbdfe0ULL},
      {1, 1, 0x99b74a18fa857883ULL, 0xcd4036dd2a30b175ULL},
      {1, 999999, 0x8446c3b50c1d5231ULL, 0xe93db83c698aaa91ULL},
      {1, ~0ULL, 0xaad744c8380875f8ULL, 0x442ac30f6ef234e8ULL},
      {99, 17, 0x003c3812f9d14419ULL, 0x96ebbdf051d8f2c6ULL},
      {99, 4095, 0x7158d5b873ab8481ULL, 0xaeb4771f2bcb43a3ULL},
  };
  for (const Recorded& r : recorded) {
    Xoshiro256pp child = Xoshiro256pp(r.seed).split(r.id);
    EXPECT_EQ(child.next(), r.first) << "seed " << r.seed << " split " << r.id;
    EXPECT_EQ(child.next(), r.second) << "seed " << r.seed << " split " << r.id;
  }
}

TEST(Xoshiro256pp, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256pp::min() == 0);
  static_assert(Xoshiro256pp::max() == ~0ULL);
  Xoshiro256pp rng(5);
  EXPECT_NE(rng(), rng());
}

TEST(Xoshiro256pp, BitsLookBalanced) {
  Xoshiro256pp rng(2024);
  int ones = 0;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) ones += __builtin_popcountll(rng.next());
  const double fraction = static_cast<double>(ones) / (64.0 * kSamples);
  EXPECT_NEAR(fraction, 0.5, 0.01);
}

}  // namespace
}  // namespace tempriv::sim
