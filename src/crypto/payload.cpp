#include "crypto/payload.h"

#include <bit>
#include <cstring>

#include "crypto/wordio.h"

namespace tempriv::crypto {

namespace {

std::uint64_t nonce_for(std::uint32_t origin_id, std::uint32_t app_seq) noexcept {
  // (origin, app_seq) is unique per packet; golden-ratio mixing spreads the
  // pair over the 64-bit nonce space.
  return (static_cast<std::uint64_t>(origin_id) << 32 | app_seq) *
         0x9e3779b97f4a7c15ULL;
}

void serialize(const SensorPayload& payload,
               std::uint8_t out[SensorPayload::kWireBytes]) noexcept {
  store_le(out, std::bit_cast<std::uint64_t>(payload.reading), 8);
  store_le(out + 8, payload.app_seq, 4);
  store_le(out + 12, std::bit_cast<std::uint64_t>(payload.creation_time), 8);
}

SensorPayload deserialize(
    const std::uint8_t plain[SensorPayload::kWireBytes]) noexcept {
  SensorPayload payload;
  payload.reading = std::bit_cast<double>(load_le(plain, 8));
  payload.app_seq = static_cast<std::uint32_t>(load_le(plain + 8, 4));
  payload.creation_time = std::bit_cast<double>(load_le(plain + 12, 8));
  return payload;
}

Speck64_128::Key derive_subkey(const Speck64_128::Key& master, std::uint8_t domain) {
  // Domain-separated subkey: encrypt two counter blocks under the master key.
  Speck64_128 kdf(master);
  Speck64_128::Key out{};
  for (int half = 0; half < 2; ++half) {
    Speck64_128::Block block{};
    block[0] = domain;
    block[1] = static_cast<std::uint8_t>(half);
    kdf.encrypt_block(block);
    std::memcpy(out.data() + half * 8, block.data(), 8);
  }
  return out;
}

}  // namespace

PayloadCodec::PayloadCodec(const Speck64_128::Key& master_key) noexcept
    : ctr_(derive_subkey(master_key, 0x01)), mac_(derive_subkey(master_key, 0x02)) {}

SealedPayload PayloadCodec::seal(const SensorPayload& payload,
                                 std::uint32_t origin_id) const noexcept {
  // Serialize into a stack buffer, encrypt straight into the sealed
  // payload's inline storage (one lane wave covers all three blocks of the
  // wire format), MAC the result — zero heap traffic.
  std::uint8_t plain[SensorPayload::kWireBytes];
  serialize(payload, plain);

  SealedPayload sealed;
  sealed.nonce = nonce_for(origin_id, payload.app_seq);
  sealed.ciphertext.resize_for_overwrite(SensorPayload::kWireBytes);
  ctr_.xor_keystream(sealed.nonce, plain, sealed.ciphertext.bytes());
  sealed.tag = mac_.tag(sealed.ciphertext.bytes());
  return sealed;
}

std::optional<SensorPayload> PayloadCodec::open(
    const SealedPayload& sealed) const noexcept {
  if (sealed.ciphertext.size() != SensorPayload::kWireBytes) return std::nullopt;
  if (!mac_.verify(sealed.ciphertext.bytes(), sealed.tag)) return std::nullopt;
  std::uint8_t plain[SensorPayload::kWireBytes];
  ctr_.xor_keystream(sealed.nonce, sealed.ciphertext.bytes(), plain);
  return deserialize(plain);
}

}  // namespace tempriv::crypto
