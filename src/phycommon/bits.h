// Bit-level utilities shared by every PHY: bit vectors, byte packing in both
// bit orders, and conversions.
//
// Convention: a "Bits" vector holds one bit per element (0/1) in *air order*,
// i.e. the order bits leave the antenna. BLE and 802.11 transmit bytes
// LSB-first; 802.15.4 transmits symbols low-nibble-first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace itb::phy {

using Bits = std::vector<std::uint8_t>;   // each element 0 or 1
using Bytes = std::vector<std::uint8_t>;  // packed octets

/// Expands bytes to bits, least-significant bit of each byte first
/// (BLE / 802.11 air order).
Bits bytes_to_bits_lsb_first(std::span<const std::uint8_t> bytes);

/// Expands bytes to bits, most-significant bit first.
Bits bytes_to_bits_msb_first(std::span<const std::uint8_t> bytes);

/// Packs bits (LSB-first per byte) into bytes. Size must be a multiple of 8.
Bytes bits_to_bytes_lsb_first(std::span<const std::uint8_t> bits);

/// Expands an integer to `width` bits, LSB first.
Bits uint_to_bits_lsb_first(std::uint64_t value, std::size_t width);

/// Expands an integer to `width` bits, MSB first.
Bits uint_to_bits_msb_first(std::uint64_t value, std::size_t width);

/// Packs up to 64 bits (first element = LSB) into an integer.
std::uint64_t bits_to_uint_lsb_first(std::span<const std::uint8_t> bits);

/// Packs up to 64 bits (first element = MSB) into an integer.
std::uint64_t bits_to_uint_msb_first(std::span<const std::uint8_t> bits);

/// Number of positions where a and b differ (sizes must match).
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

}  // namespace itb::phy
