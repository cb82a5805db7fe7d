// 64-bit FNV-1a: the one hash behind NetworkStats::digest(),
// MetricsSnapshot::digest(), TraceLog::digest() and the tests that pin
// exported bytes. Multi-byte values are fed least-significant byte first,
// so a digest is the same on every platform.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace itb::obs {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;

  /// Raw bytes, with no length suffix.
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  /// Eight bytes, least significant first.
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  /// A double by bit pattern.
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  /// A string: its bytes, then its length, so adjacent strings cannot
  /// trade characters without changing the hash.
  void mix(std::string_view s) {
    bytes(s);
    mix(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= kPrime;
  }

  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace itb::obs
