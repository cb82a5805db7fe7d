#include "wifi/dpsk.h"

#include <cassert>

namespace itb::wifi {

unsigned dbpsk_phase_increment(std::uint8_t bit) { return bit ? 2u : 0u; }

unsigned dqpsk_phase_increment(std::uint8_t d0, std::uint8_t d1) {
  // Gray order: 00 -> 0, 01 -> 1, 11 -> 2, 10 -> 3 quarter turns.
  constexpr unsigned kQuarters[4] = {0, 1, 3, 2};
  return kQuarters[(d0 & 1u) << 1 | (d1 & 1u)];
}

CVec dbpsk_encode(const Bits& bits, unsigned initial_quadrant) {
  DifferentialEncoder enc(initial_quadrant);
  CVec out;
  out.reserve(bits.size());
  for (std::uint8_t b : bits) out.push_back(enc.encode_increment(dbpsk_phase_increment(b)));
  return out;
}

CVec dqpsk_encode(const Bits& bits, unsigned initial_quadrant) {
  assert(bits.size() % 2 == 0);
  DifferentialEncoder enc(initial_quadrant);
  CVec out;
  out.reserve(bits.size() / 2);
  for (std::size_t i = 0; i + 1 < bits.size(); i += 2) {
    out.push_back(enc.encode_increment(dqpsk_phase_increment(bits[i], bits[i + 1])));
  }
  return out;
}

Bits dbpsk_decode(std::span<const Complex> symbols, Complex reference) {
  Bits out;
  out.reserve(symbols.size());
  Complex prev = reference;
  for (const Complex& s : symbols) {
    // |arg(s * conj(prev))| > pi/2 exactly when the product's real part is
    // negative.
    out.push_back(differential_product(s, prev).real() < 0.0 ? 1 : 0);
    prev = s;
  }
  return out;
}

Bits dqpsk_decode(std::span<const Complex> symbols, Complex reference) {
  Bits out;
  out.reserve(symbols.size() * 2);
  Complex prev = reference;
  for (const Complex& s : symbols) {
    const auto dibit = dqpsk_dibit(nearest_quarter(differential_product(s, prev)));
    out.push_back(dibit[0]);
    out.push_back(dibit[1]);
    prev = s;
  }
  return out;
}

}  // namespace itb::wifi
