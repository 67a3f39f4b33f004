#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>

#include "crypto/ctr.h"
#include "crypto/inline_bytes.h"
#include "crypto/speck.h"

namespace tempriv::crypto {

/// The application-level content of a sensor message (paper §2, "Encrypted
/// Payload"): the sensed reading, the application sequence number, and the
/// time-stamp of the reading. All of it is confidential — in particular the
/// time-stamp and sequence number, which is why the adversary must infer
/// creation times from arrival times alone.
struct SensorPayload {
  double reading = 0.0;        ///< sensed value (e.g. temperature, RSSI)
  std::uint32_t app_seq = 0;   ///< per-source application sequence number
  double creation_time = 0.0;  ///< time the reading was taken (sim units)

  /// Serialized wire size: reading, app_seq, creation_time, little-endian.
  static constexpr std::size_t kWireBytes = 8 + 4 + 8;

  friend bool operator==(const SensorPayload&, const SensorPayload&) = default;
};

/// An encrypted, authenticated payload as it travels through the network.
/// Intermediate nodes and the adversary see only this opaque blob.
///
/// The ciphertext lives inline (SensorPayload has a fixed wire size, with a
/// little slack so tests can exercise malformed lengths), which makes this
/// struct — and the net::Packet that carries it — trivially copyable: the
/// forwarding path moves packets with plain memcpys and zero allocations.
struct SealedPayload {
  /// Inline ciphertext capacity: the fixed wire size plus slack for
  /// malformed-input testing; open() rejects any size != kWireBytes.
  static constexpr std::size_t kCiphertextCapacity =
      SensorPayload::kWireBytes + 4;

  std::uint64_t nonce = 0;
  InlineBytes<kCiphertextCapacity> ciphertext;
  std::uint64_t tag = 0;
};

static_assert(std::is_trivially_copyable_v<SealedPayload>,
              "SealedPayload must stay a flat POD: the packet path depends "
              "on memcpy moves");

/// Seals and opens sensor payloads with a network-wide key pair (one CTR
/// encryption key, one independent MAC key), mirroring SPINS-style
/// link/network keys on motes. Nonces are derived from (origin, app_seq),
/// which the source guarantees never repeats. Both directions run entirely
/// in registers and caller-owned storage — no heap allocations per packet.
class PayloadCodec {
 public:
  /// Derives the CTR and MAC keys from a 128-bit master key.
  explicit PayloadCodec(const Speck64_128::Key& master_key) noexcept;

  SealedPayload seal(const SensorPayload& payload,
                     std::uint32_t origin_id) const noexcept;

  /// Returns nullopt if the ciphertext length is wrong or the MAC does not
  /// verify (tampering / truncation / wrong key).
  std::optional<SensorPayload> open(const SealedPayload& sealed) const noexcept;

 private:
  CtrCipher ctr_;
  CbcMac mac_;
};

}  // namespace tempriv::crypto
