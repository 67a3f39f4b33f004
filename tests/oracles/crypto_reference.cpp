#include "oracles/crypto_reference.h"

#include "crypto/wordio.h"

namespace tempriv::crypto::reference {

std::uint64_t keystream_word(const Speck64_128& cipher, std::uint64_t nonce,
                             std::uint64_t counter) noexcept {
  // Same convention as Speck64_128::encrypt_block over the little-endian
  // block bytes of (nonce ^ counter): y is the low word, x the high word.
  const std::uint64_t v = nonce ^ counter;
  std::uint32_t y = static_cast<std::uint32_t>(v);
  std::uint32_t x = static_cast<std::uint32_t>(v >> 32);
  cipher.encrypt_words(x, y);
  return static_cast<std::uint64_t>(y) | (static_cast<std::uint64_t>(x) << 32);
}

void keystream(const Speck64_128& cipher, std::uint64_t nonce,
               std::span<std::uint8_t> out) noexcept {
  std::uint64_t counter = 0;
  std::size_t offset = 0;
  while (out.size() - offset >= Speck64_128::kBlockBytes) {
    store_le(out.data() + offset, keystream_word(cipher, nonce, counter),
             Speck64_128::kBlockBytes);
    offset += Speck64_128::kBlockBytes;
    ++counter;
  }
  if (const std::size_t tail = out.size() - offset; tail > 0) {
    store_le(out.data() + offset, keystream_word(cipher, nonce, counter), tail);
  }
}

void xor_keystream(const Speck64_128& cipher, std::uint64_t nonce,
                   std::span<const std::uint8_t> in,
                   std::span<std::uint8_t> out) noexcept {
  std::uint64_t counter = 0;
  std::size_t offset = 0;
  while (in.size() - offset >= Speck64_128::kBlockBytes) {
    const std::uint64_t word =
        load_le(in.data() + offset, Speck64_128::kBlockBytes) ^
        keystream_word(cipher, nonce, counter);
    store_le(out.data() + offset, word, Speck64_128::kBlockBytes);
    offset += Speck64_128::kBlockBytes;
    ++counter;
  }
  if (const std::size_t tail = in.size() - offset; tail > 0) {
    const std::uint64_t word =
        load_le(in.data() + offset, tail) ^ keystream_word(cipher, nonce, counter);
    store_le(out.data() + offset, word, tail);
  }
}

std::uint64_t cbc_mac_tag(const Speck64_128& cipher,
                          std::span<const std::uint8_t> data) noexcept {
  // Block 0 encodes the length; then CBC-chain the zero-padded message.
  std::uint64_t state = static_cast<std::uint64_t>(data.size());
  std::uint32_t y = static_cast<std::uint32_t>(state);
  std::uint32_t x = static_cast<std::uint32_t>(state >> 32);
  cipher.encrypt_words(x, y);
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t chunk =
        data.size() - offset >= Speck64_128::kBlockBytes
            ? Speck64_128::kBlockBytes
            : data.size() - offset;
    const std::uint64_t word = load_le(data.data() + offset, chunk);
    y ^= static_cast<std::uint32_t>(word);
    x ^= static_cast<std::uint32_t>(word >> 32);
    cipher.encrypt_words(x, y);
    offset += chunk;
  }
  return static_cast<std::uint64_t>(y) | (static_cast<std::uint64_t>(x) << 32);
}

}  // namespace tempriv::crypto::reference
