// 802.11a/g OFDM transmitter: PSDU -> scramble -> convolutional encode ->
// puncture -> interleave -> QAM -> IFFT/CP, with STF/LTF/SIGNAL preamble.
//
// Exposes per-symbol data-bit control so the AM downlink shaper (§2.4) can
// dictate exactly which scrambled/coded bits land on each OFDM symbol.
#pragma once

#include <cstdint>

#include "dsp/types.h"
#include "phycommon/bits.h"
#include "wifi/ofdm_frame.h"

namespace itb::wifi {

using itb::dsp::CVec;
using itb::phy::Bits;
using itb::phy::Bytes;

struct OfdmTxConfig {
  OfdmRate rate = OfdmRate::k36;
  std::uint8_t scrambler_seed = 0x5D;  ///< 7-bit, non-zero
  bool include_preamble = true;        ///< STF + LTF + SIGNAL
};

struct OfdmTxResult {
  CVec baseband;            ///< 20 Msps complex samples
  std::size_t num_data_symbols = 0;
  Bits scrambled_bits;      ///< post-scrambler DATA field bits (diagnostics)
  double duration_us = 0.0;
};

class OfdmTransmitter {
 public:
  explicit OfdmTransmitter(const OfdmTxConfig& cfg = {});

  /// Standard path: assembles SERVICE + PSDU + tail + pad, scrambles,
  /// encodes and modulates.
  OfdmTxResult transmit(const Bytes& psdu) const;

  /// Raw path for the AM shaper: the caller provides the *unscrambled* DATA
  /// field bits (SERVICE + payload + tail + pad already laid out). Must be a
  /// multiple of N_DBPS.
  OfdmTxResult transmit_data_bits(const Bits& data_field) const;

  /// Number of pad bits etc. for a PSDU at this rate.
  std::size_t data_field_bits(std::size_t psdu_bytes) const;

 private:
  OfdmTxConfig cfg_;
};

}  // namespace itb::wifi
