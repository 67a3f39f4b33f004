#include "crypto/ctr.h"

#include <gtest/gtest.h>

#include <vector>

namespace tempriv::crypto {
namespace {

Speck64_128::Key test_key() {
  Speck64_128::Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  return key;
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> list) {
  std::vector<std::uint8_t> out;
  for (int v : list) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(CtrCipher, RoundTripsArbitraryLengths) {
  CtrCipher cipher(test_key());
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 20u, 64u, 100u}) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i);
    const std::vector<std::uint8_t> original = data;
    cipher.xor_keystream(12345, data, data);
    if (len > 0) {
      EXPECT_NE(data, original) << "len " << len;
    }
    cipher.xor_keystream(12345, data, data);  // CTR is an involution for a fixed nonce
    EXPECT_EQ(data, original) << "len " << len;
  }
}

TEST(CtrCipher, DifferentNoncesGiveDifferentCiphertexts) {
  CtrCipher cipher(test_key());
  const auto plain = bytes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  std::vector<std::uint8_t> c1(plain.size()), c2(plain.size());
  cipher.xor_keystream(1, plain, c1);
  cipher.xor_keystream(2, plain, c2);
  EXPECT_NE(c1, c2);
}

TEST(CtrCipher, CiphertextHidesPlaintextEquality) {
  // Two identical plaintext blocks inside one message must not produce
  // identical ciphertext blocks (the counter differs).
  CtrCipher cipher(test_key());
  std::vector<std::uint8_t> data(16, 0xAA);
  cipher.xor_keystream(7, data, data);
  const std::vector<std::uint8_t> first(data.begin(), data.begin() + 8);
  const std::vector<std::uint8_t> second(data.begin() + 8, data.end());
  EXPECT_NE(first, second);
}

TEST(CtrCipher, CryptCopyLeavesInputUntouched) {
  CtrCipher cipher(test_key());
  const auto plain = bytes({10, 20, 30});
  const auto copy = plain;
  std::vector<std::uint8_t> out(plain.size());
  cipher.xor_keystream(99, plain, out);
  EXPECT_EQ(plain, copy);
}

TEST(CbcMac, TagIsDeterministic) {
  CbcMac mac(test_key());
  const auto data = bytes({1, 2, 3, 4, 5});
  EXPECT_EQ(mac.tag(data), mac.tag(data));
}

TEST(CbcMac, TagDetectsSingleBitTamper) {
  CbcMac mac(test_key());
  auto data = bytes({1, 2, 3, 4, 5, 6, 7, 8, 9});
  const std::uint64_t tag = mac.tag(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_FALSE(mac.verify(data, tag)) << "byte " << i;
    data[i] ^= 0x01;
  }
  EXPECT_TRUE(mac.verify(data, tag));
}

TEST(CbcMac, LengthPrefixPreventsExtensionCollision) {
  // Without length binding, m and m||0 pad to the same final block.
  CbcMac mac(test_key());
  const auto short_msg = bytes({1, 2, 3});
  const auto padded_msg = bytes({1, 2, 3, 0, 0, 0, 0, 0});
  EXPECT_NE(mac.tag(short_msg), mac.tag(padded_msg));
}

TEST(CbcMac, EmptyMessageHasStableTag) {
  CbcMac mac(test_key());
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(mac.tag(empty), mac.tag(empty));
  EXPECT_NE(mac.tag(empty), 0u);
}

TEST(CbcMac, DifferentKeysDifferentTags) {
  CbcMac a(test_key());
  Speck64_128::Key other = test_key();
  other[5] ^= 0x80;
  CbcMac b(other);
  const auto data = bytes({42, 43, 44, 45});
  EXPECT_NE(a.tag(data), b.tag(data));
}

}  // namespace
}  // namespace tempriv::crypto
