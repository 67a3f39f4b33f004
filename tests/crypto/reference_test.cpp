#include "oracles/crypto_reference.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/ctr.h"

namespace tempriv::crypto {
namespace {

// Deterministic corpus generator (SplitMix64) — no seed-time dependence.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

Speck64_128::Key random_key(Mix& mix) {
  Speck64_128::Key key;
  for (std::size_t i = 0; i < key.size(); i += 8) {
    const std::uint64_t w = mix.next();
    for (std::size_t b = 0; b < 8; ++b) {
      key[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return key;
}

// The NSA SIMON/SPECK paper's Speck64/128 vector expressed as a CTR
// keystream block: with nonce = the plaintext block's little-endian word and
// counter 0, keystream block 0 is E_K(nonce ^ 0) = the published ciphertext.
TEST(CryptoReference, KeystreamWordMatchesOfficialSpeckVector) {
  const Speck64_128::Key key = {0x00, 0x01, 0x02, 0x03, 0x08, 0x09, 0x0a, 0x0b,
                                0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a, 0x1b};
  Speck64_128 cipher(key);
  // (x, y) = (3b726574, 7475432d) packs to LE word (x << 32) | y.
  const std::uint64_t plaintext_word = 0x3b7265747475432dULL;
  const std::uint64_t ciphertext_word = 0x8c6fa548454e028bULL;
  EXPECT_EQ(reference::keystream_word(cipher, plaintext_word, 0),
            ciphertext_word);

  // The production cipher must produce the same block, bytes and all.
  CtrCipher ctr(key);
  const std::uint8_t zeros[8] = {};
  std::uint8_t block[8];
  ctr.xor_keystream(plaintext_word, zeros, block);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(block[i], static_cast<std::uint8_t>(ciphertext_word >> (8 * i)))
        << "byte " << i;
  }
}

// The production keystream is bit-identical to the block-at-a-time
// reference for every length that exercises the scalar word (a lone last
// block) and the 4-lane wave — full and partial waves, partial tail blocks.
TEST(CryptoReference, KeystreamMatchesReferenceAcrossWidths) {
  Mix mix{0x5eed0001};
  for (int trial = 0; trial < 8; ++trial) {
    const Speck64_128::Key key = random_key(mix);
    Speck64_128 cipher(key);
    CtrCipher ctr(key);
    for (std::size_t len = 0; len <= 2 * 8 * Speck64_128::kBlockBytes + 9;
         ++len) {
      const std::uint64_t nonce = mix.next();
      // The keystream is what XORs onto zeros.
      const std::vector<std::uint8_t> zeros(len, 0);
      std::vector<std::uint8_t> got(len, 0xcd);
      std::vector<std::uint8_t> want(len, 0xab);
      ctr.xor_keystream(nonce, zeros, got);
      reference::keystream(cipher, nonce, want);
      EXPECT_EQ(got, want) << "trial " << trial << " len " << len;
    }
  }
}

TEST(CryptoReference, XorKeystreamMatchesReferenceAcrossWidths) {
  Mix mix{0x5eed0002};
  for (int trial = 0; trial < 8; ++trial) {
    const Speck64_128::Key key = random_key(mix);
    Speck64_128 cipher(key);
    CtrCipher ctr(key);
    for (std::size_t len = 0; len <= 2 * 8 * Speck64_128::kBlockBytes + 9;
         ++len) {
      const std::uint64_t nonce = mix.next();
      std::vector<std::uint8_t> plain(len);
      for (auto& b : plain) b = static_cast<std::uint8_t>(mix.next());
      std::vector<std::uint8_t> got(len), want(len);
      ctr.xor_keystream(nonce, plain, got);
      reference::xor_keystream(cipher, nonce, plain, want);
      EXPECT_EQ(got, want) << "trial " << trial << " len " << len;

      // The in-place form (out aliasing in) must agree too.
      std::vector<std::uint8_t> in_place = plain;
      ctr.xor_keystream(nonce, in_place, in_place);
      EXPECT_EQ(in_place, want) << "trial " << trial << " len " << len;
    }
  }
}

TEST(CryptoReference, CbcMacTagMatchesReference) {
  Mix mix{0x5eed0004};
  for (int trial = 0; trial < 4; ++trial) {
    const Speck64_128::Key key = random_key(mix);
    Speck64_128 cipher(key);
    CbcMac mac(key);
    for (std::size_t len = 0; len <= 4 * Speck64_128::kBlockBytes + 5; ++len) {
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(mix.next());
      EXPECT_EQ(mac.tag(data), reference::cbc_mac_tag(cipher, data))
          << "trial " << trial << " len " << len;
    }
  }
}

// Tags recorded from the implementation the oracle was split from, under the
// NSA Speck64/128 test key, for messages 0, 1, …, n−1 of lengths that cover
// the length block alone, a lone tail, one whole block, a whole block plus
// a tail, and three whole blocks. A change made to both the production MAC
// and the oracle at once still fails here.
TEST(CryptoReference, CbcMacTagMatchesRecordedValues) {
  const Speck64_128::Key key = {0x00, 0x01, 0x02, 0x03, 0x08, 0x09, 0x0a, 0x0b,
                                0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a, 0x1b};
  struct Recorded {
    std::size_t length;
    std::uint64_t tag;
  };
  const Recorded recorded[] = {{0, 0x77ad972ab1f1af49ULL},
                               {1, 0x164e6c3f99776b32ULL},
                               {8, 0x77d19fb6474f5ed1ULL},
                               {9, 0x9660974f1df37d56ULL},
                               {24, 0x06a036906fce60f9ULL}};
  const CbcMac mac(key);
  const Speck64_128 cipher(key);
  for (const Recorded& r : recorded) {
    std::vector<std::uint8_t> data(r.length);
    for (std::size_t i = 0; i < r.length; ++i) {
      data[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(mac.tag(data), r.tag) << "length " << r.length;
    EXPECT_EQ(reference::cbc_mac_tag(cipher, data), r.tag)
        << "length " << r.length;
  }
}

}  // namespace
}  // namespace tempriv::crypto
