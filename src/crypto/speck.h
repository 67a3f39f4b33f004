#pragma once

#include <array>
#include <cstdint>

namespace tempriv::crypto {

/// Speck64/128 block cipher (NSA lightweight cipher family, 2013): 64-bit
/// block, 128-bit key, 27 rounds. Speck was designed for exactly the class
/// of constrained devices the paper targets (sensor motes), which is why we
/// use it as the payload-confidentiality substrate. The implementation is
/// the reference ARX description — no table lookups, constant-time.
///
/// The word-level round functions live in the header: every sealed/opened
/// payload costs 14 block operations (CTR keystream + CBC-MAC on both
/// sides), so the round loop is the single hottest function in a full
/// scenario run and must inline into the modes' lane loops.
class Speck64_128 {
 public:
  static constexpr std::size_t kBlockBytes = 8;
  static constexpr std::size_t kKeyBytes = 16;
  static constexpr int kRounds = 27;

  using Block = std::array<std::uint8_t, kBlockBytes>;
  using Key = std::array<std::uint8_t, kKeyBytes>;

  /// Expands the 128-bit key into the round-key schedule.
  explicit Speck64_128(const Key& key) noexcept;

  /// Encrypts one 64-bit block in place (two 32-bit little-endian words).
  void encrypt_block(Block& block) const noexcept;

  /// Decrypts one 64-bit block in place.
  void decrypt_block(Block& block) const noexcept;

  /// Word-level API used by the modes (ctr.h): one ARX round per key word.
  void encrypt_words(std::uint32_t& x, std::uint32_t& y) const noexcept {
    for (const std::uint32_t k : round_keys_) {
      x = (ror(x, 8) + y) ^ k;
      y = rol(y, 3) ^ x;
    }
  }

  /// Multi-lane round kernel: `Lanes` independent (x, y) word pairs advance
  /// through all 27 rounds in lockstep under this key schedule. The inner
  /// loop has a compile-time trip count, so it unrolls into straight-line
  /// `uint32xN` arithmetic the vectorizer maps onto SIMD registers (and an
  /// out-of-order scalar core still overlaps the independent lane chains).
  /// This is the primitive behind CtrCipher's keystream wave: lane l
  /// carries counter block l of one keystream.
  template <int Lanes>
  void encrypt_words_lanes(std::uint32_t* x, std::uint32_t* y) const noexcept {
    static_assert(Lanes >= 2 && Lanes <= 16, "lane count out of range");
    for (const std::uint32_t k : round_keys_) {
      for (int l = 0; l < Lanes; ++l) {
        x[l] = (ror(x[l], 8) + y[l]) ^ k;
        y[l] = rol(y[l], 3) ^ x[l];
      }
    }
  }

 private:
  static constexpr std::uint32_t ror(std::uint32_t v, int r) noexcept {
    return (v >> r) | (v << (32 - r));
  }
  static constexpr std::uint32_t rol(std::uint32_t v, int r) noexcept {
    return (v << r) | (v >> (32 - r));
  }

  std::array<std::uint32_t, kRounds> round_keys_{};
};

}  // namespace tempriv::crypto
