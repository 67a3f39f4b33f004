#include "crypto/speck.h"

namespace tempriv::crypto {

namespace {

constexpr std::uint32_t ror8(std::uint32_t x) noexcept {
  return (x >> 8) | (x << 24);
}
constexpr std::uint32_t rol3(std::uint32_t x) noexcept {
  return (x << 3) | (x >> 29);
}

constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

constexpr void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

Speck64_128::Speck64_128(const Key& key) noexcept {
  // Key words are loaded little-endian: k[0] is the first round key; the
  // remaining three feed the l[] sequence, per the Speck specification.
  std::uint32_t k0 = load_le32(key.data());
  std::array<std::uint32_t, 3 + kRounds - 1> l{};
  l[0] = load_le32(key.data() + 4);
  l[1] = load_le32(key.data() + 8);
  l[2] = load_le32(key.data() + 12);

  round_keys_[0] = k0;
  for (int i = 0; i < kRounds - 1; ++i) {
    l[i + 3] = (round_keys_[i] + ror8(l[i])) ^ static_cast<std::uint32_t>(i);
    round_keys_[i + 1] = rol3(round_keys_[i]) ^ l[i + 3];
  }
}

void Speck64_128::encrypt_block(Block& block) const noexcept {
  // Spec convention: block = (x, y) with y the low word on the wire.
  std::uint32_t y = load_le32(block.data());
  std::uint32_t x = load_le32(block.data() + 4);
  encrypt_words(x, y);
  store_le32(block.data(), y);
  store_le32(block.data() + 4, x);
}

void Speck64_128::decrypt_block(Block& block) const noexcept {
  std::uint32_t y = load_le32(block.data());
  std::uint32_t x = load_le32(block.data() + 4);
  for (int i = kRounds - 1; i >= 0; --i) {
    y = ror(y ^ x, 3);
    x = rol((x ^ round_keys_[i]) - y, 8);
  }
  store_le32(block.data(), y);
  store_le32(block.data() + 4, x);
}

}  // namespace tempriv::crypto
