#pragma once

#include <cstdint>
#include <span>

#include "crypto/speck.h"

namespace tempriv::crypto {

/// Executable specification of the CTR keystream and CBC-MAC, one block at a
/// time — the code the production CtrCipher (4-lane keystream wave plus a
/// scalar lone last block) and CbcMac (src/crypto/ctr.cpp) must match bit
/// for bit. Test-only: the CryptoReference tests compare the production
/// entry points against it on randomized key/nonce/length corpora (and
/// against the NSA test vector); no production code calls it.
namespace reference {

/// Keystream block i as a little-endian 64-bit word: E_K(nonce ^ i).
std::uint64_t keystream_word(const Speck64_128& cipher, std::uint64_t nonce,
                             std::uint64_t counter) noexcept;

/// Fills `out` with raw keystream bytes for (nonce), block by block.
void keystream(const Speck64_128& cipher, std::uint64_t nonce,
               std::span<std::uint8_t> out) noexcept;

/// XORs the keystream into `in`, writing to `out` (may alias exactly).
void xor_keystream(const Speck64_128& cipher, std::uint64_t nonce,
                   std::span<const std::uint8_t> in,
                   std::span<std::uint8_t> out) noexcept;

/// CBC-MAC tag with the message length encrypted as block zero and
/// zero-padding of the final partial block — one chained block at a time.
std::uint64_t cbc_mac_tag(const Speck64_128& cipher,
                          std::span<const std::uint8_t> data) noexcept;

}  // namespace reference

}  // namespace tempriv::crypto
