// Passive receive circuits on the tag (paper §2.2 and §2.4):
//   - EnvelopeDetector: RC envelope + comparator used for BLE packet energy
//     detection (triggers the backscatter window; no bit decoding).
//   - PeakDetector: tracks envelope peaks of 802.11g OFDM frames to decode
//     the AM downlink at 125 kbps (and card-to-card at 100 kbps).
#pragma once

#include <vector>

#include "dsp/types.h"
#include "phycommon/bits.h"

namespace itb::backscatter {

using itb::dsp::CVec;
using itb::dsp::Real;
using itb::phy::Bits;

struct EnvelopeDetectorConfig {
  Real sample_rate_hz = 8e6;
  /// RC time constant of the envelope filter.
  Real tau_s = 2e-6;
  /// Comparator threshold in dBm at the detector input. The paper customizes
  /// this so only transmitters within 8-10 feet trigger (false-positive
  /// rejection).
  Real threshold_dbm = -45.0;
  /// Detector sensitivity floor: inputs below this read as silence.
  Real sensitivity_dbm = -55.0;
};

struct EdgeEvent {
  std::size_t sample;
  bool rising;
};

class EnvelopeDetector {
 public:
  explicit EnvelopeDetector(const EnvelopeDetectorConfig& cfg = {});

  /// RC-filtered magnitude envelope of the input.
  itb::dsp::RVec envelope(const CVec& samples) const;

  /// Comparator output transitions.
  std::vector<EdgeEvent> edges(const CVec& samples) const;

  /// First sample index at which energy is declared (nullopt-like: returns
  /// samples.size() when never triggered).
  std::size_t first_trigger(const CVec& samples) const;

 private:
  EnvelopeDetectorConfig cfg_;
};

/// The diode-RC time constants and the AM pair-decision ratio are fixed in
/// detector.cpp.
struct PeakDetectorConfig {
  Real sample_rate_hz = 20e6;
  Real sensitivity_dbm = -32.0; ///< paper: off-the-shelf receiver @160 kbps
};

class PeakDetector {
 public:
  explicit PeakDetector(const PeakDetectorConfig& cfg = {});

  /// Diode-RC peak-holding envelope.
  itb::dsp::RVec envelope(const CVec& samples) const;

  /// Decodes the paper's OFDM-AM encoding: two 4 us symbols per bit,
  /// (random, constant) = 1, (random, random) = 0. `symbol_samples` is the
  /// per-symbol sample count at this sample rate, `data_start` the sample
  /// index of the first data symbol (after any preamble), `num_bits` the
  /// expected message length.
  Bits decode_am(const CVec& samples, std::size_t data_start,
                 std::size_t symbol_samples, std::size_t num_bits) const;

  /// Simple on-off-keying decode used by the card-to-card link: one bit per
  /// `bit_samples`, threshold at the midpoint of min/max envelope.
  Bits decode_ook(const CVec& samples, std::size_t bit_samples) const;

 private:
  PeakDetectorConfig cfg_;
};

}  // namespace itb::backscatter
