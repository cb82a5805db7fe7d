#include "phycommon/bits.h"

#include <cassert>

namespace itb::phy {

Bits bytes_to_bits_lsb_first(std::span<const std::uint8_t> bytes) {
  Bits out;
  out.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 0; i < 8; ++i) out.push_back((b >> i) & 1);
  }
  return out;
}

Bits bytes_to_bits_msb_first(std::span<const std::uint8_t> bytes) {
  Bits out;
  out.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) out.push_back((b >> i) & 1);
  }
  return out;
}

Bytes bits_to_bytes_lsb_first(std::span<const std::uint8_t> bits) {
  assert(bits.size() % 8 == 0);
  Bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return out;
}

Bits uint_to_bits_lsb_first(std::uint64_t value, std::size_t width) {
  Bits out(width);
  for (std::size_t i = 0; i < width; ++i) out[i] = (value >> i) & 1;
  return out;
}

Bits uint_to_bits_msb_first(std::uint64_t value, std::size_t width) {
  Bits out(width);
  for (std::size_t i = 0; i < width; ++i) out[i] = (value >> (width - 1 - i)) & 1;
  return out;
}

std::uint64_t bits_to_uint_lsb_first(std::span<const std::uint8_t> bits) {
  assert(bits.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) v |= (1ULL << i);
  }
  return v;
}

std::uint64_t bits_to_uint_msb_first(std::span<const std::uint8_t> bits) {
  assert(bits.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    v = (v << 1) | (bits[i] & 1);
  }
  return v;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  assert(a.size() == b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] ^ b[i]) & 1;
  return d;
}

}  // namespace itb::phy
