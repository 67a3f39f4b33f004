#include "crypto/ctr.h"

#include <algorithm>

#include "crypto/wordio.h"

namespace tempriv::crypto {

namespace {

/// Lane width of the keystream wave: a payload's three blocks fit one wave.
constexpr int kLanes = 4;

/// Keystream words for the kLanes consecutive counters starting at
/// `counter`: out[l] = E_K(nonce ^ (counter + l)).
void keystream_wave(const Speck64_128& cipher, std::uint64_t nonce,
                    std::uint64_t counter, std::uint64_t out[kLanes]) noexcept {
  std::uint32_t x[kLanes];
  std::uint32_t y[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    const std::uint64_t v = nonce ^ (counter + static_cast<std::uint64_t>(l));
    y[l] = static_cast<std::uint32_t>(v);
    x[l] = static_cast<std::uint32_t>(v >> 32);
  }
  cipher.encrypt_words_lanes<kLanes>(x, y);
  for (int l = 0; l < kLanes; ++l) {
    out[l] = static_cast<std::uint64_t>(y[l]) |
             (static_cast<std::uint64_t>(x[l]) << 32);
  }
}

/// The keystream word for one counter, E_K(nonce ^ counter), with the block
/// convention of Speck64_128::encrypt_block: y is the low word, x the high.
std::uint64_t keystream_word(const Speck64_128& cipher, std::uint64_t nonce,
                             std::uint64_t counter) noexcept {
  const std::uint64_t v = nonce ^ counter;
  auto x = static_cast<std::uint32_t>(v >> 32);
  auto y = static_cast<std::uint32_t>(v);
  cipher.encrypt_words(x, y);
  return (static_cast<std::uint64_t>(x) << 32) | y;
}

/// Walks the keystream for (nonce) over `nbytes` bytes — lane waves while
/// at least two blocks remain, the scalar word for a lone last block — and
/// hands each block to `emit(offset, chunk, word)`. The last block may be a
/// tail shorter than a whole block.
template <class Emit>
void walk_keystream(const Speck64_128& cipher, std::uint64_t nonce,
                    std::size_t nbytes, Emit&& emit) noexcept {
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  const std::size_t nblocks = (nbytes + kBlock - 1) / kBlock;
  std::uint64_t words[kLanes];
  std::uint64_t counter = 0;
  std::size_t offset = 0;
  while (nblocks - counter >= 2) {
    const int live = static_cast<int>(
        std::min<std::uint64_t>(nblocks - counter, kLanes));
    keystream_wave(cipher, nonce, counter, words);
    for (int l = 0; l < live; ++l) {
      const std::size_t chunk = std::min(kBlock, nbytes - offset);
      emit(offset, chunk, words[l]);
      offset += chunk;
    }
    counter += static_cast<std::uint64_t>(live);
  }
  if (nblocks - counter == 1) {
    emit(offset, nbytes - offset, keystream_word(cipher, nonce, counter));
  }
}

}  // namespace

void CtrCipher::xor_keystream(std::uint64_t nonce,
                              std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out) const noexcept {
  walk_keystream(cipher_, nonce, in.size(),
                 [&](std::size_t offset, std::size_t chunk,
                     std::uint64_t word) {
                   store_le(out.data() + offset,
                            load_le(in.data() + offset, chunk) ^ word, chunk);
                 });
}

std::uint64_t CbcMac::tag(std::span<const std::uint8_t> data) const noexcept {
  // Block zero is the message length; the zero-padded message is then
  // chained one block at a time through the two cipher registers.
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  const auto length = static_cast<std::uint64_t>(data.size());
  auto x = static_cast<std::uint32_t>(length >> 32);
  auto y = static_cast<std::uint32_t>(length);
  cipher_.encrypt_words(x, y);
  for (std::size_t offset = 0; offset < data.size(); offset += kBlock) {
    const std::uint64_t block =
        load_le(data.data() + offset, std::min(kBlock, data.size() - offset));
    x ^= static_cast<std::uint32_t>(block >> 32);
    y ^= static_cast<std::uint32_t>(block);
    cipher_.encrypt_words(x, y);
  }
  return (static_cast<std::uint64_t>(x) << 32) | y;
}

}  // namespace tempriv::crypto
