// Generic bitwise CRC engine plus the concrete CRCs used by the three PHYs:
//   - CRC-24 (BLE link layer, poly 0x00065B, init from spec)
//   - CRC-32 (IEEE 802.11 FCS)
//   - CRC-16 CCITT (802.11b PLCP header, 802.15.4 FCS variants)
#pragma once

#include <cstdint>
#include <span>

#include "phycommon/bits.h"

namespace itb::phy {

/// Bitwise CRC over a bit stream (air order). Polynomial given without the
/// leading x^width term, e.g. CRC-24 poly x^24+x^10+x^9+x^6+x^4+x^3+x+1 is
/// 0x00065B. Shifts LSB-first (reflected), matching BLE/802.11 serialization.
class CrcEngine {
 public:
  CrcEngine(int width, std::uint32_t polynomial, std::uint32_t initial,
            bool complement_out)
      : width_(width),
        poly_(polynomial),
        init_(initial),
        complement_out_(complement_out) {}

  /// CRC of a bit vector; returns the register value (width_ bits).
  std::uint32_t compute_bits(std::span<const std::uint8_t> bits) const;

  /// CRC of packed bytes processed LSB-first.
  std::uint32_t compute_bytes(std::span<const std::uint8_t> bytes) const;

 private:
  int width_;
  std::uint32_t poly_;
  std::uint32_t init_;
  bool complement_out_;
};

/// BLE link-layer CRC-24. `init` is 0x555555 for advertising channel packets.
/// Returns 24 bits; serialize LSB-first (ble::crc24_bits does this).
std::uint32_t ble_crc24(std::span<const std::uint8_t> pdu_bits,
                        std::uint32_t init = 0x555555);

/// The 24 CRC bits in air order for appending to a BLE PDU.
Bits ble_crc24_bits(std::span<const std::uint8_t> pdu_bits,
                    std::uint32_t init = 0x555555);

/// IEEE CRC-32 over bytes (as used for the 802.11 FCS): reflected, init
/// 0xFFFFFFFF, final XOR 0xFFFFFFFF. Standard check value for "123456789" is
/// 0xCBF43926.
std::uint32_t crc32_ieee(std::span<const std::uint8_t> bytes);

/// CRC-16 CCITT (X.25 style: reflected, init 0xFFFF, xorout 0xFFFF) used by
/// the 802.15.4 FCS. Check value for "123456789" is 0x906E.
std::uint16_t crc16_x25(std::span<const std::uint8_t> bytes);

/// CRC-16 used by the 802.11b PLCP header: CCITT-FALSE style over the 32
/// header bits, non-reflected, init 0xFFFF, ones-complement output.
std::uint16_t crc16_plcp(std::span<const std::uint8_t> header_bits);

/// 802.15.4 FCS: CRC-16 with polynomial x^16+x^12+x^5+1, init 0x0000,
/// reflected. Appended little-endian.
std::uint16_t crc16_802154(std::span<const std::uint8_t> bytes);

}  // namespace itb::phy
