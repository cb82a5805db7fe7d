// Gray-coded BPSK/QPSK/16-QAM/64-QAM constellation mapping with the 802.11
// normalization factors (17.3.5.8).
#pragma once

#include <span>

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::wifi {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

enum class Modulation { kBpsk, kQpsk, k16Qam, k64Qam };

constexpr std::size_t bits_per_symbol(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
      return 1;
    case Modulation::kQpsk:
      return 2;
    case Modulation::k16Qam:
      return 4;
    case Modulation::k64Qam:
      return 6;
  }
  return 0;
}

/// Normalization K_mod so average symbol energy is 1.
Real qam_norm(Modulation m);

/// Maps bits to constellation points; bits.size() must be a multiple of
/// bits_per_symbol(m).
CVec qam_modulate(const Bits& bits, Modulation m);

/// Hard-decision demapping (nearest constellation point).
Bits qam_demodulate(std::span<const Complex> symbols, Modulation m);

/// Single-symbol mapping.
Complex qam_map_symbol(std::span<const std::uint8_t> bits, Modulation m);

}  // namespace itb::wifi
