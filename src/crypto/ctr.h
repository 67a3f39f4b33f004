#pragma once

#include <cstdint>
#include <span>

#include "crypto/speck.h"

namespace tempriv::crypto {

/// CTR-mode stream encryption over Speck64/128.
///
/// The keystream block for index i is E_K(nonce XOR i) where the 64-bit
/// counter occupies the whole block; a fresh nonce per packet (we use the
/// origin id + application sequence number mixed through SplitMix-style
/// constants) keeps (nonce, i) pairs unique. CTR is symmetric: encrypt and
/// decrypt are the same operation.
///
/// Counter blocks are independent, so the keystream is generated in
/// 4-lane waves: up to four counters advance through the cipher's rounds in
/// lockstep via Speck64_128::encrypt_words_lanes, which covers a payload's
/// three blocks in one pass (a block-at-a-time walk costs 55–85 ns more per
/// seal+open). A lone last block takes the scalar word. Both are checked bit
/// for bit against the block-at-a-time test oracle in tests/oracles/.
class CtrCipher {
 public:
  explicit CtrCipher(const Speck64_128::Key& key) noexcept : cipher_(key) {}

  /// Encrypts/decrypts `in` into caller-provided `out` storage (the two may
  /// alias exactly, but must not partially overlap). `out` must be at least
  /// `in.size()` bytes; only the first `in.size()` are written.
  void xor_keystream(std::uint64_t nonce, std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const noexcept;

 private:
  Speck64_128 cipher_;
};

/// CBC-MAC over Speck64/128 producing a 64-bit tag.
///
/// The message length (in bytes) is encrypted as block zero, which closes
/// the classic variable-length CBC-MAC forgery; zero padding completes the
/// final block. Use a key independent from the CTR key. The chaining state
/// is two registers end to end — no temporaries, no allocation. Checked
/// against the test oracle and against recorded tags.
class CbcMac {
 public:
  explicit CbcMac(const Speck64_128::Key& key) noexcept : cipher_(key) {}

  std::uint64_t tag(std::span<const std::uint8_t> data) const noexcept;

  /// Constant-time-ish verification (single 64-bit compare).
  bool verify(std::span<const std::uint8_t> data,
              std::uint64_t expected_tag) const noexcept {
    return tag(data) == expected_tag;
  }

 private:
  Speck64_128 cipher_;
};

}  // namespace tempriv::crypto
