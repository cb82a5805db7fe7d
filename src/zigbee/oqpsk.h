// 802.15.4 2.4 GHz O-QPSK DSSS PHY (the "ZigBee" PHY the paper targets in
// §4.5): 250 kbps, 4-bit symbols spread to 32-chip PN sequences at 2 Mchip/s,
// half-sine-shaped offset QPSK.
#pragma once

#include <array>
#include <cstdint>

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::zigbee {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;
using itb::phy::Bytes;

inline constexpr std::size_t kChipsPerSymbol = 32;
inline constexpr Real kChipRateHz = 2e6;
inline constexpr Real kSymbolRateHz = 62.5e3;  // 2 Mchip/s / 32
inline constexpr double kBitsPerSymbol = 4.0;  // 250 kbps

/// Chip sequence (32 chips, chip 0 first) for data symbol 0..15
/// (IEEE 802.15.4-2011 Table 73). Symbols 8..15 are the conjugate-rotated
/// variants of 0..7.
const std::array<std::uint32_t, 16>& chip_table();

/// Expands a symbol (0..15) into 32 chips (0/1 values).
Bits symbol_chips(unsigned symbol);

/// Baseband samples per chip, and the resulting sample rate (8 Msps).
inline constexpr std::size_t kSamplesPerChip = 4;
inline constexpr Real kSampleRateHz =
    kChipRateHz * static_cast<Real>(kSamplesPerChip);

/// O-QPSK modulator: even chips on I, odd chips on Q, half-sine pulse
/// shaping, Q delayed by half a chip period.
class OqpskModulator {
 public:
  OqpskModulator();

  /// Modulates a chip stream (multiple of 2 chips) to complex baseband.
  CVec modulate_chips(const Bits& chips) const;

  /// Modulates bytes: each byte = low nibble symbol first.
  CVec modulate_bytes(const Bytes& bytes) const;

 private:
  itb::dsp::RVec pulse_;
};

/// Chip-correlation demodulator: recovers symbols by correlating soft chip
/// samples against the 16 PN sequences.
class OqpskDemodulator {
 public:
  /// Complex soft chips, each its branch's half-sine matched-filter output
  /// (I chips on the real axis, Q chips on the imaginary axis when
  /// on-channel); `offset_samples` points at the first sample of chip 0. A carrier phase or frequency
  /// offset rotates these samples instead of destroying them, which is what
  /// the noncoherent detector below exploits.
  CVec soft_chips(const CVec& samples, std::size_t offset_samples = 0) const;

  /// Symbol detection over soft chips: correlates each 32-chip symbol
  /// against the 16 complex PN patterns in 4-chip (2 us) sub-blocks,
  /// combining adjacent blocks differentially (DPDI), and packs the symbols
  /// into bytes (low nibble first). Invariant to a common phase rotation and
  /// tolerant of CFO up to ~a quarter turn per sub-block step (~+-100 kHz) —
  /// the low-power-tag regime where per-chip sign decisions lose every chip
  /// — while still penalizing phase discontinuities from corrupted chips.
  Bytes soft_chips_to_bytes(const CVec& soft) const;
};

}  // namespace itb::zigbee
