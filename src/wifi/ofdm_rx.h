// 802.11a/g OFDM receiver: preamble detection, LTF channel estimation,
// equalization, demapping, Viterbi decoding and descrambling.
//
// Besides closing the TX loop in tests, this class reproduces the paper's
// §4.4 methodology: it exposes the recovered scrambler seed of each frame
// (via the SERVICE field), which is how the authors tracked chipset seed
// policies with the gr-ieee802-11 GNURadio receiver.
#pragma once

#include <optional>

#include "wifi/ofdm_tx.h"

namespace itb::wifi {

struct OfdmRxResult {
  Bytes psdu;
  OfdmRate rate = OfdmRate::k6;
  std::uint8_t scrambler_seed = 0;  ///< recovered from the SERVICE field
  bool signal_ok = false;
  itb::dsp::Real rssi_dbm = 0.0;
  std::size_t frame_start = 0;      ///< sample index of the STF start
  /// Carrier offset estimated from the preamble (Hz at 20 Msps), already
  /// corrected before demodulation. 0 when the LTF autocorrelation vanishes
  /// and no estimate exists.
  itb::dsp::Real cfo_est_hz = 0.0;
};

/// Runs at 20 Msps. Symbols go through the same extract_ofdm_symbol and
/// parse_signal_symbol the frame-layer tests use, with the LTF channel
/// estimate in place of a unit channel.
class OfdmReceiver {
 public:
  /// Finds and decodes one frame. Returns nullopt when no preamble is found.
  std::optional<OfdmRxResult> receive(const CVec& samples) const;
};

}  // namespace itb::wifi
