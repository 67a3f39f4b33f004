#include "crypto/speck.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace tempriv::crypto {
namespace {

// The official Speck64/128 test vector from the NSA's SIMON/SPECK paper
// (ePrint 2013/404): key words (1b1a1918, 13121110, 0b0a0908, 03020100),
// plaintext (3b726574, 7475432d), ciphertext (8c6fa548, 454e028b).
Speck64_128::Key reference_key() {
  return {0x00, 0x01, 0x02, 0x03, 0x08, 0x09, 0x0a, 0x0b,
          0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a, 0x1b};
}

TEST(Speck64_128, OfficialTestVectorEncrypt) {
  Speck64_128 cipher(reference_key());
  std::uint32_t x = 0x3b726574;
  std::uint32_t y = 0x7475432d;
  cipher.encrypt_words(x, y);
  EXPECT_EQ(x, 0x8c6fa548u);
  EXPECT_EQ(y, 0x454e028bu);
}

TEST(Speck64_128, OfficialTestVectorDecrypt) {
  // A block is the words (y, x), each little-endian: ciphertext
  // (x, y) = (8c6fa548, 454e028b) decrypts to (3b726574, 7475432d).
  Speck64_128 cipher(reference_key());
  Speck64_128::Block block = {0x8b, 0x02, 0x4e, 0x45, 0x48, 0xa5, 0x6f, 0x8c};
  cipher.decrypt_block(block);
  const Speck64_128::Block plain = {0x2d, 0x43, 0x75, 0x74,
                                    0x74, 0x65, 0x72, 0x3b};
  EXPECT_EQ(block, plain);
}

TEST(Speck64_128, BlockRoundTrip) {
  Speck64_128 cipher(reference_key());
  for (std::uint8_t fill = 0; fill < 32; ++fill) {
    Speck64_128::Block block;
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<std::uint8_t>(fill * 7 + i);
    }
    const Speck64_128::Block original = block;
    cipher.encrypt_block(block);
    EXPECT_NE(block, original);
    cipher.decrypt_block(block);
    EXPECT_EQ(block, original);
  }
}

TEST(Speck64_128, DifferentKeysGiveDifferentCiphertexts) {
  Speck64_128::Key key_a = reference_key();
  Speck64_128::Key key_b = reference_key();
  key_b[0] ^= 0x01;  // single-bit key change
  Speck64_128 a(key_a);
  Speck64_128 b(key_b);
  Speck64_128::Block block_a{1, 2, 3, 4, 5, 6, 7, 8};
  Speck64_128::Block block_b = block_a;
  a.encrypt_block(block_a);
  b.encrypt_block(block_b);
  EXPECT_NE(block_a, block_b);
}

TEST(Speck64_128, AvalancheOnPlaintextBitFlip) {
  Speck64_128 cipher(reference_key());
  Speck64_128::Block a{0, 0, 0, 0, 0, 0, 0, 0};
  Speck64_128::Block b{1, 0, 0, 0, 0, 0, 0, 0};  // one-bit difference
  cipher.encrypt_block(a);
  cipher.encrypt_block(b);
  int differing_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing_bits += __builtin_popcount(a[i] ^ b[i]);
  }
  // A good cipher flips ~half the 64 output bits.
  EXPECT_GT(differing_bits, 16);
  EXPECT_LT(differing_bits, 48);
}

TEST(Speck64_128, EncryptIsDeterministic) {
  Speck64_128 cipher(reference_key());
  Speck64_128::Block a{9, 8, 7, 6, 5, 4, 3, 2};
  Speck64_128::Block b = a;
  cipher.encrypt_block(a);
  cipher.encrypt_block(b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tempriv::crypto
