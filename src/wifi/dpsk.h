// Differential BPSK / QPSK phase encoding used by 802.11b (and by the
// interscatter tag, which maps the phase states onto its four impedances).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

/// e^{j q pi/2} for a quarter-turn count q (mod 4): one of the four exact
/// phasors 1, j, -1, -j.
inline Complex quarter_phasor(unsigned q) {
  constexpr Real kRe[4] = {1.0, 0.0, -1.0, 0.0};
  constexpr Real kIm[4] = {0.0, 1.0, 0.0, -1.0};
  return {kRe[q & 3u], kIm[q & 3u]};
}

/// DBPSK phase increment for one bit, in quarter turns: 0 -> 0, 1 -> pi
/// (IEEE 802.11-2016 Table 15-2).
unsigned dbpsk_phase_increment(std::uint8_t bit);

/// DQPSK phase increment for a dibit (d0 first in time), in quarter turns:
/// 00 -> 0, 01 -> pi/2, 11 -> pi, 10 -> 3pi/2 (Table 15-3).
unsigned dqpsk_phase_increment(std::uint8_t d0, std::uint8_t d1);

/// Differential encoder state machine producing unit-magnitude symbols.
/// The phase is a quadrant (quarter turns mod 4), so every symbol is one of
/// the exact phasors 1, j, -1, -j.
class DifferentialEncoder {
 public:
  explicit DifferentialEncoder(unsigned initial_quadrant = 0)
      : quadrant_(initial_quadrant & 3u) {}

  /// Advances the phase by `quarters` * pi/2 and returns the new symbol.
  Complex encode_increment(unsigned quarters) {
    quadrant_ = (quadrant_ + quarters) & 3u;
    return quarter_phasor(quadrant_);
  }

  unsigned quadrant() const { return quadrant_; }

 private:
  unsigned quadrant_;
};

/// DBPSK-encodes a bit stream into symbols.
CVec dbpsk_encode(const Bits& bits, unsigned initial_quadrant = 0);

/// DQPSK-encodes a bit stream (even length) into symbols.
CVec dqpsk_encode(const Bits& bits, unsigned initial_quadrant = 0);

/// Differential decode: recovers bits from received symbols given the symbol
/// preceding the first one (reference). Decisions are sign tests on
/// differential_product, so no phase is ever computed.
Bits dbpsk_decode(std::span<const Complex> symbols, Complex reference);
Bits dqpsk_decode(std::span<const Complex> symbols, Complex reference);

/// s * conj(prev), spelled out in real arithmetic: its phase is the phase
/// step from prev to s.
inline Complex differential_product(Complex s, Complex prev) {
  return {s.real() * prev.real() + s.imag() * prev.imag(),
          s.imag() * prev.real() - s.real() * prev.imag()};
}

/// The multiple of pi/2 nearest to arg(w), as 0..3 counter-clockwise,
/// decided from the signs and magnitudes of w's parts.
inline unsigned nearest_quarter(Complex w) {
  const Real re = w.real();
  const Real im = w.imag();
  if (std::abs(re) >= std::abs(im)) return re >= 0.0 ? 0u : 2u;
  return im > 0.0 ? 1u : 3u;
}

/// The dibit (d0, d1) whose DQPSK increment is `quarter` * pi/2: the
/// inverse of dqpsk_phase_increment.
inline std::array<std::uint8_t, 2> dqpsk_dibit(unsigned quarter) {
  constexpr std::array<std::uint8_t, 2> kDibits[4] = {
      {0, 0}, {0, 1}, {1, 1}, {1, 0}};
  return kDibits[quarter & 3u];
}

}  // namespace itb::wifi
