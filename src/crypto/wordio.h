#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace tempriv::crypto {

/// Little-endian word <-> byte helpers shared by the CTR/CBC-MAC modes,
/// the payload codec and the crypto test oracle. Loads and stores of up to
/// 8 bytes are the only memory traffic on the crypto path; everything in
/// between is register arithmetic. Full 8-byte accesses — every block of
/// every keystream lane — take a single fixed-width memcpy (one mov on
/// little-endian targets) instead of the byte loop the sub-block tails use.
inline std::uint64_t load_le(const std::uint8_t* p, std::size_t n) noexcept {
  if (n == 8 && std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

inline void store_le(std::uint8_t* p, std::uint64_t v, std::size_t n) noexcept {
  if (n == 8 && std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace tempriv::crypto
