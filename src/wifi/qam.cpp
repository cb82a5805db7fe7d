#include "wifi/qam.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace itb::wifi {

Real qam_norm(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
      return 1.0;
    case Modulation::kQpsk:
      return 1.0 / std::sqrt(2.0);
    case Modulation::k16Qam:
      return 1.0 / std::sqrt(10.0);
    case Modulation::k64Qam:
      return 1.0 / std::sqrt(42.0);
  }
  return 1.0;
}

namespace {

/// Gray mapping of bit groups to PAM levels per 802.11 Table 17-10/11/12:
/// 1 bit:  0 -> -1, 1 -> +1
/// 2 bits: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
/// 3 bits: 000 -> -7, 001 -> -5, 011 -> -3, 010 -> -1,
///         110 -> +1, 111 -> +3, 101 -> +5, 100 -> +7
Real gray_to_level(std::span<const std::uint8_t> bits) {
  switch (bits.size()) {
    case 1:
      return bits[0] ? 1.0 : -1.0;
    case 2: {
      const unsigned v = static_cast<unsigned>(bits[0] << 1 | bits[1]);
      switch (v) {
        case 0b00:
          return -3.0;
        case 0b01:
          return -1.0;
        case 0b11:
          return 1.0;
        case 0b10:
          return 3.0;
      }
      return 0.0;
    }
    case 3: {
      const unsigned v =
          static_cast<unsigned>(bits[0] << 2 | bits[1] << 1 | bits[2]);
      switch (v) {
        case 0b000:
          return -7.0;
        case 0b001:
          return -5.0;
        case 0b011:
          return -3.0;
        case 0b010:
          return -1.0;
        case 0b110:
          return 1.0;
        case 0b111:
          return 3.0;
        case 0b101:
          return 5.0;
        case 0b100:
          return 7.0;
      }
      return 0.0;
    }
    default:
      assert(false && "unsupported PAM width");
      return 0.0;
  }
}

void level_to_gray(Real level, std::size_t width, Bits& out) {
  // Quantize to the nearest odd level in range, then inverse-map.
  const Real max_level = width == 1 ? 1.0 : (width == 2 ? 3.0 : 7.0);
  // A NaN soft value (e.g. propagated through an impairment chain or an
  // equalizer division by a null estimate) would sail through std::round and
  // std::clamp into static_cast<int>, which is undefined behaviour for NaN.
  // Pin it deterministically to the most negative level — the all-zeros Gray
  // group. +-inf need no guard: they clamp to +-max_level below.
  if (std::isnan(level)) level = -max_level;
  Real q = std::round((level + max_level) / 2.0) * 2.0 - max_level;
  q = std::clamp(q, -max_level, max_level);
  const int iv = static_cast<int>(q);
  switch (width) {
    case 1:
      out.push_back(iv > 0 ? 1 : 0);
      return;
    case 2: {
      switch (iv) {
        case -3:
          out.push_back(0);
          out.push_back(0);
          return;
        case -1:
          out.push_back(0);
          out.push_back(1);
          return;
        case 1:
          out.push_back(1);
          out.push_back(1);
          return;
        default:
          out.push_back(1);
          out.push_back(0);
          return;
      }
    }
    case 3: {
      unsigned v = 0;
      switch (iv) {
        case -7:
          v = 0b000;
          break;
        case -5:
          v = 0b001;
          break;
        case -3:
          v = 0b011;
          break;
        case -1:
          v = 0b010;
          break;
        case 1:
          v = 0b110;
          break;
        case 3:
          v = 0b111;
          break;
        case 5:
          v = 0b101;
          break;
        default:
          v = 0b100;
          break;
      }
      out.push_back((v >> 2) & 1);
      out.push_back((v >> 1) & 1);
      out.push_back(v & 1);
      return;
    }
    default:
      assert(false);
  }
}

/// Appends the demapped bits of one symbol to `out`.
void unmap_symbol_into(Complex symbol, Modulation m, Real inv_k, Bits& out) {
  const Real re = symbol.real() * inv_k;
  const Real im = symbol.imag() * inv_k;
  switch (m) {
    case Modulation::kBpsk:
      level_to_gray(re, 1, out);
      break;
    case Modulation::kQpsk:
      level_to_gray(re, 1, out);
      level_to_gray(im, 1, out);
      break;
    case Modulation::k16Qam:
      level_to_gray(re, 2, out);
      level_to_gray(im, 2, out);
      break;
    case Modulation::k64Qam:
      level_to_gray(re, 3, out);
      level_to_gray(im, 3, out);
      break;
  }
}

}  // namespace

Complex qam_map_symbol(std::span<const std::uint8_t> bits, Modulation m) {
  const Real k = qam_norm(m);
  switch (m) {
    case Modulation::kBpsk:
      assert(bits.size() == 1);
      return {k * gray_to_level(bits.subspan(0, 1)), 0.0};
    case Modulation::kQpsk:
      assert(bits.size() == 2);
      return {k * gray_to_level(bits.subspan(0, 1)),
              k * gray_to_level(bits.subspan(1, 1))};
    case Modulation::k16Qam:
      assert(bits.size() == 4);
      return {k * gray_to_level(bits.subspan(0, 2)),
              k * gray_to_level(bits.subspan(2, 2))};
    case Modulation::k64Qam:
      assert(bits.size() == 6);
      return {k * gray_to_level(bits.subspan(0, 3)),
              k * gray_to_level(bits.subspan(3, 3))};
  }
  return {0.0, 0.0};
}

CVec qam_modulate(const Bits& bits, Modulation m) {
  const std::size_t bps = bits_per_symbol(m);
  assert(bits.size() % bps == 0);
  CVec out;
  out.reserve(bits.size() / bps);
  for (std::size_t i = 0; i < bits.size(); i += bps) {
    out.push_back(qam_map_symbol(std::span<const std::uint8_t>(&bits[i], bps), m));
  }
  return out;
}

Bits qam_demodulate(std::span<const Complex> symbols, Modulation m) {
  Bits out;
  out.reserve(symbols.size() * bits_per_symbol(m));
  const Real inv_k = 1.0 / qam_norm(m);
  for (const Complex& s : symbols) {
    unmap_symbol_into(s, m, inv_k, out);
  }
  return out;
}

}  // namespace itb::wifi
