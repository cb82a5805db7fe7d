// GFSK modulation and demodulation for BLE LE 1M.
//
// LE 1M: 1 Msym/s, modulation index h = 0.5 (±250 kHz nominal deviation),
// Gaussian BT = 0.5. A run of identical bits therefore produces a constant
// frequency offset — the property the paper's single-tone trick exploits.
#pragma once

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::ble {

using itb::dsp::Complex;
using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

/// Baseband sample rate of the modulator and demodulator: 8 samples per
/// LE 1M symbol.
inline constexpr std::size_t kGfskSamplesPerSymbol = 8;
inline constexpr Real kGfskSampleRateHz = 8e6;

/// GFSK modulator producing unit-amplitude complex baseband centered on the
/// nominal carrier (0 Hz). A '1' bit shifts frequency up, '0' down.
class GfskModulator {
 public:
  GfskModulator();

  /// Modulates air bits into complex baseband samples.
  CVec modulate(const Bits& bits) const;

 private:
  itb::dsp::RVec gaussian_taps_;
};

/// Non-coherent FSK discriminator demodulator: differentiates phase and
/// slices at mid-symbol. Adequate for the loopback tests and for verifying
/// that synthesized packets are decodable by a conventional BLE receiver.
class GfskDemodulator {
 public:
  /// Demodulates samples into bits. `bit_offset_samples` selects where the
  /// first symbol starts (0 if the stream begins exactly at a bit edge).
  Bits demodulate(const CVec& samples, std::size_t bit_offset_samples = 0) const;

  /// Instantaneous frequency estimate (Hz) per sample — useful for tests
  /// verifying the single-tone property.
  itb::dsp::RVec instantaneous_frequency_hz(const CVec& samples) const;
};

}  // namespace itb::ble
