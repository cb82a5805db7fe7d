// Complementary Code Keying (CCK) for 802.11b 5.5 and 11 Mbps.
//
// Each symbol carries 4 bits (5.5 Mbps) or 8 bits (11 Mbps) in an 8-chip
// complex codeword derived from four phases:
//   c = (e^{j(p1+p2+p3+p4)}, e^{j(p1+p3+p4)}, e^{j(p1+p2+p4)}, -e^{j(p1+p4)},
//        e^{j(p1+p2+p3)},    e^{j(p1+p3)},    -e^{j(p1+p2)},   e^{jp1})
// p1 is DQPSK (differential, with an extra pi rotation on odd symbols);
// p2..p4 carry the remaining bits (IEEE 802.11-2016 sect. 16.4.6.5/6).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "phycommon/bits.h"
#include "wifi/rates.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

inline constexpr std::size_t kCckChipsPerSymbol = 8;

/// 8-chip codeword for phases (p1..p4), each given in quarter turns
/// (p = q * pi/2, q mod 4). Every chip is one of the exact phasors
/// 1, j, -1, -j.
std::array<Complex, kCckChipsPerSymbol> cck_codeword(unsigned q1, unsigned q2,
                                                     unsigned q3, unsigned q4);

/// QPSK phase, in quarter turns, for the (d_i, d_{i+1}) dibit used by
/// p2/p3/p4 at 11 Mbps: 00 -> 0, 01 -> pi/2, 10 -> pi, 11 -> 3pi/2
/// (Table 16-6).
unsigned cck_qpsk_phase(std::uint8_t d0, std::uint8_t d1);

/// CCK modulator. Stateful: tracks the DQPSK reference quadrant and the
/// even/odd symbol count (odd symbols get an extra pi on p1).
class CckModulator {
 public:
  explicit CckModulator(DsssRate rate);

  /// Modulates a whole bit stream (size multiple of 4 or 8 depending on
  /// rate) and appends its chips to `out`.
  void modulate(const Bits& bits, CVec& out);

  /// Phases p2..p4, in quarter turns, for one symbol's data bits
  /// (rate-dependent mapping). `data` holds the bits after the first DQPSK
  /// dibit: 2 bits for 5.5 Mbps, 6 bits for 11 Mbps.
  std::array<unsigned, 3> data_phases(std::span<const std::uint8_t> data) const;

  /// Starts a new symbol stream whose p1 reference is `initial_quadrant`.
  void reset(unsigned initial_quadrant = 0);

 private:
  DsssRate rate_;
  std::size_t bits_per_symbol_;
  unsigned phase_ref_ = 0;
  std::size_t symbol_index_ = 0;
};

/// CCK demodulator: nearest-codeword search over p2..p4 plus differential
/// recovery of p1. Stateless: every call starts from its `reference`.
class CckDemodulator {
 public:
  /// Most candidates a symbol can have (64 at 11 Mbps, 4 at 5.5 Mbps).
  static constexpr std::size_t kMaxCandidates = 64;

  explicit CckDemodulator(DsssRate rate);

  /// Demodulates chips (size multiple of 8) into bits. `reference` is the
  /// last preceding symbol (the header tail); only its phase is used.
  Bits demodulate(std::span<const Complex> chips,
                  Complex reference = Complex{1.0, 0.0}) const;

  /// Correlations sum_k block[k] * conj(c_v[k]) of one 8-chip block with
  /// every base codeword c_v (p1 = 0). Candidate v's bit b is its data bit
  /// b (the bits after the p1 dibit). Writes and returns the candidate
  /// count.
  std::size_t correlate(std::span<const Complex, kCckChipsPerSymbol> block,
                        std::array<Complex, kMaxCandidates>& out) const;

 private:
  DsssRate rate_;
};

}  // namespace itb::wifi
